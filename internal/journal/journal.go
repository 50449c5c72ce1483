// Package journal is the crash-safe progress log behind resumable sweeps:
// an append-only JSONL file of keyed checkpoint entries. Every completed
// unit of work (one kernel at one frequency, one rendered row, one served
// request) is recorded as soon as it finishes and synced to disk, so a
// process killed mid-sweep — including kill -9 — loses at most the entry
// it was writing. Reopening the file replays the completed entries; the
// caller skips them and continues where the dead run stopped.
//
// Torn tails are expected: a line cut short by the crash fails to parse
// and is dropped. Corruption in the middle of the file — bad JSON that is
// not a torn tail, e.g. a bit flip or a partial overwrite — must not cost
// the entries recorded after it: such lines are quarantined verbatim into
// a ".quarantine" sidecar and replay continues. Whenever damage of either
// kind is found the file is compacted — the valid entries are rewritten
// to a temporary file which atomically renames over the original — so the
// journal on disk is always clean valid JSONL.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// AtomicWrite writes a file crash-safely: the content goes to path.tmp
// through a buffered writer, is flushed and fsynced, and the temporary
// file atomically renames over path — so the file on disk is always
// either the old complete content or the new complete content, never a
// torn mix. It is the journal's own compaction machinery, exported for
// the other durable artifacts (the content-addressed store, calibration
// files) so every "write this artifact safely" path in the system is the
// same code.
func AtomicWrite(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := write(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Entry is one checkpoint line: a key identifying the unit of work and
// the recorded result.
type Entry struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Stats are the journal's replay and append counters.
type Stats struct {
	// Entries is the number of distinct completed keys known.
	Entries int
	// Replayed counts Get hits served from the reopened file, Appended
	// the entries recorded by this process, Dropped the torn or invalid
	// tail lines discarded at Open, Quarantined the corrupt mid-file
	// lines diverted to the ".quarantine" sidecar.
	Replayed, Appended, Dropped, Quarantined int64
	// Compactions counts CompactRetain rewrites that actually dropped
	// entries (history pruning, not corruption repair).
	Compactions int64
}

// Journal is a keyed, append-only JSONL checkpoint log. It is safe for
// concurrent use — sweep workers record from pool goroutines.
type Journal struct {
	mu          sync.Mutex
	path        string
	f           *os.File
	done        map[string]json.RawMessage
	order       []string // first-seen key order, for compaction and Keys
	replayed    int64
	appended    int64
	dropped     int64
	quarantined int64
	compactions int64
}

// QuarantinePath returns the sidecar file corrupt mid-file lines of the
// journal at path are diverted to.
func QuarantinePath(path string) string { return path + ".quarantine" }

// Open loads the journal at path (creating it when absent), replaying
// every valid entry. A torn tail — a contiguous run of invalid lines at
// the end of the file, the signature of a crash mid-Record — is dropped.
// Invalid lines followed by valid ones are not a torn tail: they are
// appended verbatim to the ".quarantine" sidecar and replay continues,
// so one corrupt record does not cost the entries after it. When damage
// of either kind is found the file is compacted in place via atomic
// rename before appending resumes.
func Open(path string) (*Journal, error) {
	j := &Journal{path: path, done: map[string]json.RawMessage{}}
	if data, err := os.ReadFile(path); err == nil {
		var bad [][]byte // invalid lines seen so far, pending tail/quarantine triage
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				var e Entry
				if uerr := json.Unmarshal(line, &e); uerr != nil || e.Key == "" {
					// Invalid. Whether this is a torn tail or mid-file
					// corruption depends on whether any valid line follows,
					// so hold it until we know.
					bad = append(bad, append([]byte(nil), line...))
				} else {
					// A valid line after invalid ones: those were not a
					// torn tail — quarantine them and keep replaying.
					if len(bad) > 0 {
						if qerr := quarantine(path, bad); qerr != nil {
							return nil, qerr
						}
						j.quarantined += int64(len(bad))
						bad = nil
					}
					if _, seen := j.done[e.Key]; !seen {
						j.order = append(j.order, e.Key)
					}
					j.done[e.Key] = e.Data
				}
			}
			if err != nil {
				break
			}
		}
		// Invalid lines with nothing valid after them are the torn tail.
		j.dropped = int64(len(bad))
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if j.dropped > 0 || j.quarantined > 0 {
		if err := j.compact(); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// OpenResume is Open for a -journal/-resume flag pair: unless resume is
// set, whatever an earlier run left at path is removed first, so the run
// starts from an empty journal.
func OpenResume(path string, resume bool) (*Journal, error) {
	if !resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	return Open(path)
}

// quarantine appends the corrupt lines verbatim to the sidecar, synced —
// the evidence must survive the next crash too.
func quarantine(path string, lines [][]byte) error {
	f, err := os.OpenFile(QuarantinePath(path), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	for _, line := range lines {
		if _, err := f.Write(line); err != nil {
			f.Close()
			return fmt.Errorf("journal: quarantine: %w", err)
		}
		if len(line) == 0 || line[len(line)-1] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return fmt.Errorf("journal: quarantine: %w", err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: quarantine: %w", err)
	}
	return nil
}

// compact rewrites the valid entries to path.tmp and atomically renames
// it over the journal, dropping the damaged lines from disk.
func (j *Journal) compact() error {
	return AtomicWrite(j.path, func(w io.Writer) error {
		for _, k := range j.order {
			line, err := json.Marshal(Entry{Key: k, Data: j.done[k]})
			if err != nil {
				return err
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		return nil
	})
}

// CompactRetain rewrites the journal keeping only the entries keep
// returns true for, via the same atomic temp+rename the corruption path
// uses. Retained entries keep their recorded bytes verbatim, so replay
// of the survivors is byte-identical — the jobs tier uses this to prune
// the per-unit history of terminal jobs while live jobs resume exactly
// as before. Dropped keys stop answering Get/Has immediately. It
// returns the number of entries dropped; zero drops leave the file
// untouched.
func (j *Journal) CompactRetain(keep func(key string) bool) (int, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, fmt.Errorf("journal: closed")
	}
	var order []string
	dropped := 0
	for _, k := range j.order {
		if keep(k) {
			order = append(order, k)
		} else {
			delete(j.done, k)
			dropped++
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	j.order = order
	// The append handle points at the current inode; compaction renames
	// a fresh file over the path, so the handle must be reopened or
	// future Records would land in the unlinked old file.
	if err := j.f.Close(); err != nil {
		j.f = nil
		return dropped, err
	}
	j.f = nil
	if err := j.compact(); err != nil {
		return dropped, err
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return dropped, err
	}
	j.f = f
	j.compactions++
	return dropped, nil
}

// Record checkpoints one completed unit of work: v is marshalled,
// appended as one JSONL line and synced to disk before Record returns,
// so a crash after Record never loses the entry.
func (j *Journal) Record(key string, v any) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal %q: %w", key, err)
	}
	return j.RecordBytes(key, data)
}

// RecordBytes is Record for a value the caller already marshalled: data
// must be one JSON value and becomes the entry's recorded bytes (anything
// else is refused, so a bad payload cannot tear the file). The journal
// keeps data; the caller must not modify it afterwards.
func (j *Journal) RecordBytes(key string, data []byte) error {
	if j == nil {
		return nil
	}
	if key == "" {
		return fmt.Errorf("journal: empty key")
	}
	line, err := json.Marshal(Entry{Key: key, Data: data})
	if err != nil {
		return fmt.Errorf("journal: marshal %q: %w", key, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("journal: append %q: %w", key, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %q: %w", key, err)
	}
	if _, seen := j.done[key]; !seen {
		j.order = append(j.order, key)
	}
	j.done[key] = data
	j.appended++
	return nil
}

// Get replays a completed entry into out (a pointer), reporting whether
// the key was found. A nil journal never has entries.
func (j *Journal) Get(key string, out any) (bool, error) {
	data, ok := j.Bytes(key)
	if !ok {
		return false, nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return false, fmt.Errorf("journal: replay %q: %w", key, err)
		}
	}
	return true, nil
}

// Step runs one journaled unit of work, the one statement of "replay,
// else compute and record": an entry under key that decodes as T replays
// and compute is skipped. No entry — or one that does not decode as T, a
// foreign or damaged line — is a miss: compute runs, its value is
// recorded (last write wins, so a bad line is repaired) and the value
// handed back is the one decoded FROM THE RECORDED BYTES, so a fresh run
// and a replay observe exactly the same value. A failed compute records
// nothing — a resume retries it. With a nil journal Step is compute.
func Step[T any](j *Journal, key string, compute func() (T, error)) (v T, replayed bool, err error) {
	if data, ok := j.Bytes(key); ok && json.Unmarshal(data, &v) == nil {
		return v, true, nil
	}
	if v, err = compute(); err != nil || j == nil {
		return v, false, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return v, false, fmt.Errorf("journal: marshal %q: %w", key, err)
	}
	if err := j.RecordBytes(key, data); err != nil {
		return v, false, err
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		return v, false, fmt.Errorf("journal: replay %q: %w", key, err)
	}
	return out, false, nil
}

// Bytes replays a completed entry as the recorded bytes the journal
// already holds — no decode, no copy; callers must not modify them.
func (j *Journal) Bytes(key string) ([]byte, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, ok := j.done[key]
	if ok {
		j.replayed++
	}
	return data, ok
}

// Has reports whether a key is already checkpointed, without counting a
// replay.
func (j *Journal) Has(key string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[key]
	return ok
}

// Keys returns every checkpointed key in first-recorded order — the
// replay order a resuming job tier rebuilds its state in.
func (j *Journal) Keys() []string {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.order...)
}

// Stats returns the journal's counters.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Entries: len(j.done), Replayed: j.replayed,
		Appended: j.appended, Dropped: j.dropped,
		Quarantined: j.quarantined, Compactions: j.compactions,
	}
}

// Close syncs and closes the underlying file. Further Records fail;
// Get/Has keep serving the in-memory entries. Close is idempotent.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
