package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type point struct {
	F float64 `json:"f"`
	E float64 `json:"e"`
}

// Record then reopen: every entry replays with the exact values written.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]point{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		p := point{F: 1.0 + float64(i)*0.137, E: 1e-7 * float64(i)}
		want[k] = p
		if err := j.Record(k, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats().Entries != 10 {
		t.Fatalf("len = %d, want 10", r.Stats().Entries)
	}
	for k, w := range want {
		var got point
		ok, err := r.Get(k, &got)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
		// Byte-identical replay: encoding/json round-trips float64 exactly.
		if got != w {
			t.Fatalf("Get(%s) = %+v, want %+v", k, got, w)
		}
	}
	if st := r.Stats(); st.Replayed != 10 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Has("missing") {
		t.Fatal("Has on unknown key")
	}
}

// A crash-torn tail is dropped, the valid prefix survives, and Open
// compacts the file on disk so the damage does not persist.
func TestJournalTornTailDroppedAndCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Record(fmt.Sprintf("k%d", i), point{F: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Simulate kill -9 mid-write: append half a line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k5","data":{"f":5`)
	f.Close()

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Entries != 5 || r.Stats().Dropped != 1 {
		t.Fatalf("after torn tail: len %d, stats %+v", r.Stats().Entries, r.Stats())
	}
	if r.Has("k5") {
		t.Fatal("torn entry replayed")
	}
	// The damaged unit re-records cleanly on the same handle.
	if err := r.Record("k5", point{F: 5}); err != nil {
		t.Fatal(err)
	}
	r.Close()

	// Compaction rewrote the file: a third open sees a clean journal.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data[:len(data)-1]), `{"f":5`+"\n") {
		t.Fatal("compacted file still contains the torn line")
	}
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Stats().Entries != 6 || r2.Stats().Dropped != 0 {
		t.Fatalf("after compaction: len %d, stats %+v", r2.Stats().Entries, r2.Stats())
	}
}

// Garbage in the middle is not a torn tail: the corrupt line is diverted
// to the .quarantine sidecar and every valid entry — before and after it
// — still replays.
func TestJournalQuarantinesMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := []string{
		`{"key":"a","data":{"f":1}}`,
		`not json at all`,
		`{"data":{"f":9}}`, // valid JSON but keyless: also corrupt
		`{"key":"b","data":{"f":2}}`,
		`{"key":"c","data":{"f":3}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Has("a") || !j.Has("b") || !j.Has("c") || j.Stats().Entries != 3 {
		t.Fatalf("len %d, has(a)=%v has(b)=%v has(c)=%v", j.Stats().Entries, j.Has("a"), j.Has("b"), j.Has("c"))
	}
	if st := j.Stats(); st.Quarantined != 2 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 2 quarantined, 0 dropped", st)
	}
	if got := j.Keys(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Keys = %v", got)
	}
	// The sidecar holds the corrupt lines verbatim.
	q, err := os.ReadFile(QuarantinePath(path))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(q), "not json at all") || !strings.Contains(string(q), `{"data":{"f":9}}`) {
		t.Fatalf("quarantine sidecar missing corrupt lines:\n%s", q)
	}
	// Compaction scrubbed the main file: a reopen is clean.
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); r.Stats().Entries != 3 || st.Quarantined != 0 || st.Dropped != 0 {
		t.Fatalf("after compaction: len %d, stats %+v", r.Stats().Entries, st)
	}
}

// Mid-file corruption and a torn tail together: the mid-file line is
// quarantined, the tail dropped, and the valid entries all replay.
func TestJournalQuarantineAndTornTailTogether(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"key":"a","data":{"f":1}}` + "\n" +
		`garbage` + "\n" +
		`{"key":"b","data":{"f":2}}` + "\n" +
		`{"key":"c","data":{"f":` // torn mid-write, no newline
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !j.Has("a") || !j.Has("b") || j.Has("c") || j.Stats().Entries != 2 {
		t.Fatalf("len %d, has(a)=%v has(b)=%v has(c)=%v", j.Stats().Entries, j.Has("a"), j.Has("b"), j.Has("c"))
	}
	if st := j.Stats(); st.Quarantined != 1 || st.Dropped != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined, 1 dropped", st)
	}
}

// Duplicate keys: last record wins, and Len counts distinct keys.
func TestJournalLastWriteWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record("k", point{F: 1})
	j.Record("k", point{F: 2})
	j.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got point
	if ok, _ := r.Get("k", &got); !ok || got.F != 2 {
		t.Fatalf("Get = %v %+v, want f=2", ok, got)
	}
	if r.Stats().Entries != 1 {
		t.Fatalf("len = %d", r.Stats().Entries)
	}
}

// Concurrent Records from pool workers interleave without corrupting the
// file: a reopen sees every entry.
func TestJournalConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("w%d/%d", w, i)
				if err := j.Record(k, point{F: float64(w), E: float64(i)}); err != nil {
					t.Errorf("Record(%s): %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats().Entries != 200 || r.Stats().Dropped != 0 {
		t.Fatalf("len %d, stats %+v", r.Stats().Entries, r.Stats())
	}
}

// Nil journals and closed journals degrade cleanly.
func TestJournalNilAndClosed(t *testing.T) {
	var j *Journal
	if err := j.Record("k", 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := j.Get("k", nil); ok || err != nil {
		t.Fatal("nil journal has entries")
	}
	if j.Stats().Entries != 0 || j.Has("k") || j.Close() != nil {
		t.Fatal("nil journal misbehaves")
	}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	real, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	real.Record("k", point{F: 1})
	real.Close()
	if real.Close() != nil {
		t.Fatal("Close not idempotent")
	}
	if err := real.Record("x", 1); err == nil {
		t.Fatal("Record after Close succeeded")
	}
	// In-memory reads keep working after Close.
	if !real.Has("k") {
		t.Fatal("closed journal lost entries")
	}
}

// CompactRetain drops the filtered keys, keeps the survivors with their
// recorded bytes verbatim, and — crucially — keeps appending to the NEW
// file after the atomic rename, so records made after a compaction
// survive a reopen.
func TestJournalCompactRetain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := j.Record(fmt.Sprintf("k%d", i), point{F: float64(i), E: 1e-9 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	keepEven := func(key string) bool {
		return strings.HasSuffix(key, "0") || strings.HasSuffix(key, "2") || strings.HasSuffix(key, "4")
	}
	dropped, err := j.CompactRetain(keepEven)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	if st := j.Stats(); st.Compactions != 1 || st.Entries != 3 {
		t.Fatalf("stats after compaction: %+v", st)
	}
	// Dropped keys stop answering immediately; survivors still answer.
	if j.Has("k1") || j.Has("k3") || j.Has("k5") {
		t.Fatal("dropped key still present")
	}
	var got point
	if ok, err := j.Get("k2", &got); err != nil || !ok || got.F != 2 {
		t.Fatalf("survivor k2: %+v ok=%v err=%v", got, ok, err)
	}
	// Appending after the rename must land in the new file.
	if err := j.Record("k9", point{F: 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Stats().Entries != 4 {
		t.Fatalf("reopened len = %d, want 4 (k0,k2,k4,k9): %v", r.Stats().Entries, r.Keys())
	}
	for _, k := range []string{"k0", "k2", "k4", "k9"} {
		if !r.Has(k) {
			t.Fatalf("key %s missing after reopen: %v", k, r.Keys())
		}
	}
	if st := r.Stats(); st.Dropped != 0 || st.Quarantined != 0 {
		t.Fatalf("compacted file replayed with damage: %+v", st)
	}
}

// Retained entries survive compaction with their journaled bytes
// verbatim — the byte-identity guarantee the jobs tier's resume rides on.
func TestJournalCompactRetainBytesVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Raw messages with deliberate formatting quirks JSON re-marshalling
	// would normalize away if the bytes were not kept verbatim.
	if err := j.Record("keep", map[string]any{"v": 0.30000000000000004}); err != nil {
		t.Fatal(err)
	}
	if err := j.Record("drop", point{F: 1}); err != nil {
		t.Fatal(err)
	}
	var before map[string]any
	if _, err := j.Get("keep", &before); err != nil {
		t.Fatal(err)
	}
	if _, err := j.CompactRetain(func(key string) bool { return key == "keep" }); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "0.30000000000000004") {
		t.Fatalf("retained bytes not verbatim: %s", data)
	}
	if strings.Contains(string(data), `"drop"`) {
		t.Fatalf("dropped entry still on disk: %s", data)
	}
}

// Zero drops leave the file untouched and count no compaction; a closed
// journal refuses; a nil journal no-ops.
func TestJournalCompactRetainNoopAndClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("a", point{F: 1}); err != nil {
		t.Fatal(err)
	}
	dropped, err := j.CompactRetain(func(string) bool { return true })
	if err != nil || dropped != 0 {
		t.Fatalf("no-op compaction: dropped=%d err=%v", dropped, err)
	}
	if st := j.Stats(); st.Compactions != 0 {
		t.Fatalf("no-op counted a compaction: %+v", st)
	}
	// Still appendable after the no-op (the fd was never cycled).
	if err := j.Record("b", point{F: 2}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := j.CompactRetain(func(string) bool { return false }); err == nil {
		t.Fatal("CompactRetain on closed journal succeeded")
	}
	var nilJ *Journal
	if dropped, err := nilJ.CompactRetain(func(string) bool { return false }); err != nil || dropped != 0 {
		t.Fatalf("nil journal: dropped=%d err=%v", dropped, err)
	}
}

// The bytes surface: RecordBytes stores one JSON value as given, Bytes
// hands the recorded bytes back (before and after a reopen) and counts a
// replay, a payload that is not JSON is refused before it reaches the
// file, and Get decodes what RecordBytes stored.
func TestJournalBytesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const payload = `{"f":1.5,"e":2e-7}`
	if err := j.RecordBytes("k", []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := j.RecordBytes("bad", []byte(`{"f":`)); err == nil {
		t.Fatal("RecordBytes accepted a payload that is not JSON")
	}
	if _, ok := j.Bytes("bad"); ok {
		t.Fatal("a refused payload answers Bytes")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	for _, jr := range []*Journal{j, mustOpen(t, path)} {
		got, ok := jr.Bytes("k")
		if !ok || string(got) != payload {
			t.Fatalf("Bytes = %q, %v; want the recorded payload", got, ok)
		}
		var p point
		if ok, err := jr.Get("k", &p); !ok || err != nil || p != (point{F: 1.5, E: 2e-7}) {
			t.Fatalf("Get after RecordBytes = %+v, %v, %v", p, ok, err)
		}
	}
	if st := j.Stats(); st.Appended != 1 || st.Replayed != 2 {
		t.Fatalf("stats %+v, want 1 appended and 2 replays", st)
	}
	var nilJ *Journal
	if _, ok := nilJ.Bytes("k"); ok || nilJ.RecordBytes("k", []byte(`1`)) != nil {
		t.Fatal("nil journal is not a no-op on the bytes surface")
	}
}

func mustOpen(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// unit is a Step payload whose Scratch field does not survive JSON: a
// value handed back from the recorded bytes has it zeroed.
type unit struct {
	F       float64 `json:"f"`
	Scratch int     `json:"-"`
}

// Step is the one statement of "replay, else compute and record".
func TestStep(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name     string
		entry    string // pre-recorded payload under the key; "" for none
		fail     bool   // compute fails
		replayed bool
		want     unit
		recorded string // the key's payload afterwards; "" for none
	}{
		{name: "miss", want: unit{F: 1.5}, recorded: `{"f":1.5}`},
		{name: "hit", entry: `{"f":2}`, replayed: true, want: unit{F: 2}, recorded: `{"f":2}`},
		{name: "wrong shape is a miss and is repaired", entry: `[1,2]`, want: unit{F: 1.5}, recorded: `{"f":1.5}`},
		{name: "failed compute records nothing", fail: true},
		{name: "failed compute leaves a wrong-shape entry alone", entry: `"x"`, fail: true, recorded: `"x"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := mustOpen(t, filepath.Join(t.TempDir(), "j.jsonl"))
			if tc.entry != "" {
				if err := j.RecordBytes("k", []byte(tc.entry)); err != nil {
					t.Fatal(err)
				}
			}
			calls := 0
			compute := func() (unit, error) {
				calls++
				if tc.fail {
					return unit{}, errBoom
				}
				return unit{F: 1.5, Scratch: 7}, nil
			}
			got, replayed, err := Step(j, "k", compute)
			if tc.fail {
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v, want the compute error", err)
				}
			} else if err != nil || got != tc.want || replayed != tc.replayed {
				t.Fatalf("Step = %+v, %v, %v; want %+v, %v", got, replayed, err, tc.want, tc.replayed)
			}
			if (calls == 0) != tc.replayed {
				t.Fatalf("compute ran %d times, replayed = %v", calls, tc.replayed)
			}
			data, ok := j.Bytes("k")
			if string(data) != tc.recorded || ok != (tc.recorded != "") {
				t.Fatalf("entry afterwards = %q, %v; want %q", data, ok, tc.recorded)
			}
			if tc.fail {
				return
			}
			// The value handed back is the one decoded from the recorded
			// bytes, and the next Step replays it without computing.
			var decoded unit
			if err := json.Unmarshal(data, &decoded); err != nil || decoded != got {
				t.Fatalf("Step returned %+v, Unmarshal(recorded bytes) = %+v, %v", got, decoded, err)
			}
			again, replayed, err := Step(j, "k", compute)
			if err != nil || !replayed || again != got || calls > 1 {
				t.Fatalf("second Step = %+v, %v, %v after %d computes; want a replay of %+v", again, replayed, err, calls, got)
			}
		})
	}
	// A nil journal computes and hands the value back untouched.
	got, replayed, err := Step(nil, "k", func() (unit, error) { return unit{F: 1.5, Scratch: 7}, nil })
	if err != nil || replayed || got != (unit{F: 1.5, Scratch: 7}) {
		t.Fatalf("nil journal Step = %+v, %v, %v", got, replayed, err)
	}
}

// OpenResume truncates exactly when resume is false.
func TestOpenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	for _, tc := range []struct {
		resume bool
		want   int // entries visible at open
	}{{false, 0}, {true, 1}, {true, 2}, {false, 0}, {true, 1}} {
		j, err := OpenResume(path, tc.resume)
		if err != nil {
			t.Fatal(err)
		}
		if j.Stats().Entries != tc.want {
			t.Fatalf("OpenResume(resume=%v) sees %d entries, want %d", tc.resume, j.Stats().Entries, tc.want)
		}
		if err := j.Record(fmt.Sprintf("k%d", j.Stats().Entries), 1); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}
}
