// Package cas is the disk-persisted content-addressed store behind the
// fleet cache tier: every cacheable artifact the pipeline produces — a
// deterministic serve response, a calibration fit — already has a stable
// content-hash identity, and this store keeps the bytes for that identity
// across process restarts, so a rebooted daemon warm-starts instead of
// recomputing and peers exchange entries by hash.
//
// The robustness contract:
//
//   - Writes are crash-safe: entries are framed with an internal
//     checksum and land via the journal's atomic temp+fsync+rename, so
//     the store never holds a torn entry.
//   - Reads are verified: every Get re-checks the frame (length and
//     SHA-256). An entry that fails — disk corruption, a bit flip —
//     is quarantined into a ".quarantine" sidecar next to the store
//     and reported as a miss; corruption costs one recompute, never a
//     wrong answer and never the rest of the store.
//   - Boot is a warm-start scan: Open validates every entry on disk,
//     quarantines the damaged ones, and serves the rest immediately.
//
// The injectable fault point "cas.read.bitflip" flips one payload bit
// on read, exercising the quarantine path deterministically.
package cas

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"polyufc/internal/faults"
	"polyufc/internal/journal"
)

// FaultReadBitflip is the injectable fault point that flips one bit of
// a read payload before verification — the deterministic stand-in for
// disk corruption between scan and read.
const FaultReadBitflip = "cas.read.bitflip"

// Stats are the store's counters, shaped for /statsz.
type Stats struct {
	// Entries is the live entry count; WarmEntries how many of them
	// were loaded from disk at Open (survivors of the last process).
	Entries     int `json:"entries"`
	WarmEntries int `json:"warm_entries"`
	// Hits and Misses count Get outcomes; WarmHits the Gets served from
	// entries that were already on disk at boot — nonzero warm hits are
	// the proof a restart actually reused the previous run's work.
	Hits     int64 `json:"hits"`
	WarmHits int64 `json:"warm_hits"`
	Misses   int64 `json:"misses"`
	// Puts counts stored entries, PutBytes their payload volume.
	Puts     int64 `json:"puts"`
	PutBytes int64 `json:"put_bytes"`
	// Quarantined counts entries diverted to ".quarantine" sidecars
	// after failing verification at scan or read time.
	Quarantined int64 `json:"quarantined"`
	// TotalBytes is the live payload volume; Evictions and EvictedBytes
	// count entries removed by the MaxBytes LRU bound (zero on an
	// unbounded store).
	TotalBytes   int64 `json:"total_bytes"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
}

// Options tunes a store.
type Options struct {
	// MaxBytes bounds the summed payload volume; when a Put (or a
	// warm-start scan) pushes the store past it, least-recently-accessed
	// entries are evicted — index entry and disk file both — until the
	// store fits again. The most recently touched entry is never evicted,
	// so a single oversized payload still serves. 0 means unbounded.
	MaxBytes int64
}

// Store is a directory of framed, checksummed entries, one file per
// key. It is safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	faults  *faults.Registry
	opts    Options
	entries map[string]*entryInfo
	// total is the summed payload volume of the index; seq orders entry
	// accesses for the LRU eviction policy (a logical clock, bumped on
	// every Get hit and Put).
	total int64
	seq   int64
	stats Stats
}

type entryInfo struct {
	warm bool
	size int64
	// access is the seq value of the entry's last Get hit or Put; the
	// smallest access is the eviction victim.
	access int64
}

// entryPath is the on-disk file of a key.
func (s *Store) entryPath(key string) string { return filepath.Join(s.dir, key+".cas") }

// QuarantinePath returns the sidecar a corrupt entry file is moved to.
func QuarantinePath(path string) string { return path + ".quarantine" }

// Open loads (or creates) the store at dir and warm-start scans it:
// every *.cas file is decoded and verified; valid entries are indexed
// as warm, damaged ones are quarantined. reg (may be nil) arms the
// store's injectable fault points.
func Open(dir string, reg *faults.Registry) (*Store, error) {
	return OpenOptions(dir, reg, Options{})
}

// OpenOptions is Open with store options (the MaxBytes LRU bound). A
// warm-start scan that exceeds the bound evicts oldest-scanned entries
// immediately, so a store re-opened with a smaller budget trims itself
// at boot.
func OpenOptions(dir string, reg *faults.Registry, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{dir: dir, faults: reg, opts: opts, entries: map[string]*entryInfo{}}
	names, err := filepath.Glob(filepath.Join(dir, "*.cas"))
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("cas: scan: %w", err)
		}
		key, payload, derr := DecodeEntry(data)
		// The file name is part of the identity: a valid frame under the
		// wrong name is as corrupt as a bad checksum.
		if derr == nil && s.entryPath(key) != path {
			derr = fmt.Errorf("cas: entry key %s does not match file %s", key, filepath.Base(path))
		}
		if derr != nil {
			if qerr := s.quarantine(path); qerr != nil {
				return nil, qerr
			}
			continue
		}
		s.seq++
		s.entries[key] = &entryInfo{warm: true, size: int64(len(payload)), access: s.seq}
		s.total += int64(len(payload))
	}
	s.evictLocked()
	s.stats.WarmEntries = len(s.entries)
	return s, nil
}

// evictLocked enforces the MaxBytes bound: least-recently-accessed
// entries go first — dropped from the index and removed from disk —
// until the store fits. The most recently touched entry always
// survives, so a single payload larger than the bound still serves
// (and converges to a one-entry store instead of thrashing).
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.total > s.opts.MaxBytes && len(s.entries) > 1 {
		victim := ""
		var oldest int64
		for k, info := range s.entries {
			if victim == "" || info.access < oldest {
				victim, oldest = k, info.access
			}
		}
		info := s.entries[victim]
		delete(s.entries, victim)
		if info.warm {
			s.stats.WarmEntries--
		}
		s.total -= info.size
		s.stats.Evictions++
		s.stats.EvictedBytes += info.size
		// A remove failure leaves a stray file behind; the next Open
		// re-indexes it. The index bound — what the serving path sees —
		// holds regardless.
		_ = os.Remove(s.entryPath(victim))
	}
}

// quarantine moves a damaged entry file into its ".quarantine" sidecar
// (appending content if a previous quarantine of the same name exists)
// so the evidence survives and the store path is free for a clean
// re-fetch.
func (s *Store) quarantine(path string) error {
	q := QuarantinePath(path)
	if _, err := os.Stat(q); err == nil {
		// A second corruption of the same key: keep both bodies.
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return fmt.Errorf("cas: quarantine: %w", rerr)
		}
		f, oerr := os.OpenFile(q, os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr != nil {
			return fmt.Errorf("cas: quarantine: %w", oerr)
		}
		if _, werr := f.Write(data); werr != nil {
			f.Close()
			return fmt.Errorf("cas: quarantine: %w", werr)
		}
		if cerr := f.Close(); cerr != nil {
			return fmt.Errorf("cas: quarantine: %w", cerr)
		}
		if rerr := os.Remove(path); rerr != nil {
			return fmt.Errorf("cas: quarantine: %w", rerr)
		}
	} else if err := os.Rename(path, q); err != nil {
		return fmt.Errorf("cas: quarantine: %w", err)
	}
	s.stats.Quarantined++
	return nil
}

// Get returns the verified payload for key. A miss — unknown key, or an
// entry that failed verification and was quarantined — returns ok
// false; corruption is counted and contained, never surfaced as an
// error, because the caller's contract is "recompute on miss".
func (s *Store) Get(key string) (payload []byte, ok bool) {
	if s == nil || !ValidKey(key) {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err == nil {
		if ferr := s.faults.Hit(FaultReadBitflip); ferr != nil && len(data) > 0 {
			data[len(data)-1] ^= 0x01 // deterministic single-bit flip
		}
		var gotKey string
		var body []byte
		if gotKey, body, err = DecodeEntry(data); err == nil && gotKey != key {
			err = fmt.Errorf("cas: entry key mismatch")
		}
		if err == nil {
			s.stats.Hits++
			if info.warm {
				s.stats.WarmHits++
			}
			s.seq++
			info.access = s.seq
			return body, true
		}
	}
	// Unreadable or failed verification: quarantine what is there and
	// forget the entry. A quarantine failure (disk dying) still drops
	// the index entry — serving a known-bad entry is the one forbidden
	// outcome.
	delete(s.entries, key)
	s.total -= info.size
	if info.warm {
		s.stats.WarmEntries--
	}
	if _, serr := os.Stat(path); serr == nil {
		_ = s.quarantine(path)
	}
	s.stats.Misses++
	return nil, false
}

// Put stores a payload under key, crash-safely: the framed entry is
// written via atomic temp+fsync+rename, so a crash mid-Put leaves
// either the old entry or the new one, never a torn file.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	data, err := EncodeEntry(key, payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := journal.AtomicWrite(s.entryPath(key), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	}); err != nil {
		return fmt.Errorf("cas: put %s: %w", key, err)
	}
	if old, ok := s.entries[key]; ok {
		if old.warm {
			s.stats.WarmEntries--
		}
		s.total -= old.size
	}
	s.seq++
	s.entries[key] = &entryInfo{size: int64(len(payload)), access: s.seq}
	s.total += int64(len(payload))
	s.stats.Puts++
	s.stats.PutBytes += int64(len(payload))
	s.evictLocked()
	return nil
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.TotalBytes = s.total
	return st
}
