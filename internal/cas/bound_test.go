package cas

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
)

// indexed reports whether a key is in the store's index, without reading
// or verifying its entry and without counting a hit.
func indexed(s *Store, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// indexedKeys returns the store's indexed keys, sorted.
func indexedKeys(s *Store) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// payloadOf builds a payload of a fixed size whose content identifies i.
func payloadOf(i, size int) []byte {
	p := bytes.Repeat([]byte{byte('a' + i%26)}, size)
	copy(p, fmt.Sprintf("payload-%d|", i))
	return p
}

func TestBoundedStoreConvergesUnderChurn(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 10 * 100 // ten 100-byte entries
	s, err := OpenOptions(dir, nil, Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	// Churn: store far more volume than the bound admits.
	const n = 200
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), payloadOf(i, 100)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.TotalBytes > maxBytes {
			t.Fatalf("after put %d: total %d exceeds bound %d", i, st.TotalBytes, maxBytes)
		}
	}
	st := s.Stats()
	if st.Entries != 10 || st.TotalBytes != maxBytes {
		t.Fatalf("converged to %d entries / %d bytes; want 10 / %d", st.Entries, st.TotalBytes, maxBytes)
	}
	if st.Evictions != n-10 || st.EvictedBytes != int64(n-10)*100 {
		t.Fatalf("evictions = %d (%d bytes); want %d (%d)", st.Evictions, st.EvictedBytes, n-10, (n-10)*100)
	}
	// The survivors are exactly the most recent puts, on disk and in the
	// index; everything older is gone from both.
	files, err := filepath.Glob(filepath.Join(dir, "*.cas"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 10 {
		t.Fatalf("%d entry files on disk; want 10", len(files))
	}
	for i := 0; i < n-10; i++ {
		if indexed(s, testKey(i)) {
			t.Fatalf("evicted key %d still indexed", i)
		}
	}
	for i := n - 10; i < n; i++ {
		got, ok := s.Get(testKey(i))
		if !ok || !bytes.Equal(got, payloadOf(i, 100)) {
			t.Fatalf("survivor key %d: ok=%v", i, ok)
		}
	}
}

func TestEvictionIsLRUNotFIFO(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), nil, Options{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), payloadOf(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry: key 1 becomes the LRU victim.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing before churn")
	}
	if err := s.Put(testKey(3), payloadOf(3, 100)); err != nil {
		t.Fatal(err)
	}
	if indexed(s, testKey(1)) {
		t.Fatal("key 1 survived eviction despite being least recently used")
	}
	for _, i := range []int{0, 2, 3} {
		if !indexed(s, testKey(i)) {
			t.Fatalf("key %d evicted; want it kept", i)
		}
	}
}

func TestOversizedEntrySurvivesAlone(t *testing.T) {
	s, err := OpenOptions(t.TempDir(), nil, Options{MaxBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(0), payloadOf(0, 100)); err != nil {
		t.Fatal(err)
	}
	// A single entry over the bound is kept (never thrash to empty), but
	// the next put displaces it.
	if !indexed(s, testKey(0)) {
		t.Fatal("oversized sole entry was evicted")
	}
	if err := s.Put(testKey(1), payloadOf(1, 100)); err != nil {
		t.Fatal(err)
	}
	if indexed(s, testKey(0)) || !indexed(s, testKey(1)) {
		t.Fatalf("after second put: has0=%v has1=%v; want false/true", indexed(s, testKey(0)), indexed(s, testKey(1)))
	}
}

func TestWarmStartTrimsToNewBound(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(testKey(i), payloadOf(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Re-open with a budget for only three entries: the scan itself must
	// trim, and the survivors still verify.
	s2, err := OpenOptions(dir, nil, Options{MaxBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Entries != 3 || st.TotalBytes != 300 || st.Evictions != 5 {
		t.Fatalf("after bounded re-open: %+v", st)
	}
	for _, key := range indexedKeys(s2) {
		if _, ok := s2.Get(key); !ok {
			t.Fatalf("warm survivor %s failed verification", key)
		}
	}
	if s2.Stats().Quarantined != 0 {
		t.Fatal("trim quarantined entries; want clean removal")
	}
}

func TestUnboundedStoreNeverEvicts(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(testKey(i), payloadOf(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 0 || st.Entries != 50 || st.TotalBytes != 5000 {
		t.Fatalf("unbounded store: %+v", st)
	}
}
