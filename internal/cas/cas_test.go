package cas

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"polyufc/internal/faults"
)

func testKey(i int) string { return Sum([]byte(fmt.Sprintf("key-%d", i)))[:32] }

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"answer":42}`)
	key := testKey(1)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get(testKey(2)); ok {
		t.Fatal("Get of unknown key reported a hit")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 1 || st.WarmHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyPayload(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := s.Put(key, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || len(got) != 0 {
		t.Fatalf("empty payload Get = %q, %v", got, ok)
	}
}

func TestWarmStartScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// A new process over the same directory sees every entry as warm.
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.WarmEntries != 5 || st.Entries != 5 {
		t.Fatalf("warm scan stats = %+v, want 5 warm entries", st)
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || !bytes.Equal(got, []byte(fmt.Sprintf("payload-%d", i))) {
			t.Fatalf("warm Get(%d) = %q, %v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.WarmHits != 5 {
		t.Fatalf("WarmHits = %d, want 5", st.WarmHits)
	}
}

func TestScanQuarantinesCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good, bad, misnamed := testKey(10), testKey(11), testKey(12)
	for _, k := range []string{good, bad} {
		if err := s.Put(k, []byte("payload for "+k)); err != nil {
			t.Fatal(err)
		}
	}
	// Truncate one entry (torn write survivor) and plant a valid frame
	// under the wrong file name (identity mismatch).
	badPath := filepath.Join(dir, bad+".cas")
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(badPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeEntry(good, []byte("misfiled"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, misnamed+".cas"), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.WarmEntries != 1 || st.Quarantined != 2 {
		t.Fatalf("stats after damaged scan = %+v, want 1 warm, 2 quarantined", st)
	}
	if _, ok := s2.Get(bad); ok {
		t.Fatal("truncated entry served")
	}
	if got, ok := s2.Get(good); !ok || !bytes.Equal(got, []byte("payload for "+good)) {
		t.Fatalf("good entry lost to neighbours' corruption: %q, %v", got, ok)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, "*.quarantine")); len(q) != 2 {
		t.Fatalf("quarantine sidecars = %v, want 2", q)
	}
}

// TestBitFlipProperty is the satellite property test: flipping a
// random bit of a persisted entry must never let Get serve a wrong
// payload — the outcome is either a detected corruption (quarantine +
// miss) or the original bytes (a semantically neutral flip, e.g. JSON
// header field case, since Go matches field names case-insensitively).
// It also proves one corrupt entry never costs the store's other
// entries.
func TestBitFlipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := []byte(`{"kernel":"gemm","caps":[1.2,1.8],"nested":{"deep":true}}`)
	other := testKey(99)
	for trial := 0; trial < 60; trial++ {
		dir := t.TempDir()
		s, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := testKey(trial)
		if err := s.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(other, []byte("bystander")); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, key+".cas")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bit := rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Half the trials exercise the read path of the already-open
		// store, half the warm-start scan of a fresh one.
		if trial%2 == 1 {
			s, err = Open(dir, nil)
			if err != nil {
				t.Fatalf("trial %d (bit %d): reopen: %v", trial, bit, err)
			}
		}
		got, ok := s.Get(key)
		if ok && !bytes.Equal(got, payload) {
			t.Fatalf("trial %d: flipped bit %d served WRONG payload %q", trial, bit, got)
		}
		if got, ok := s.Get(other); !ok || !bytes.Equal(got, []byte("bystander")) {
			t.Fatalf("trial %d: corruption of %s cost the bystander entry", trial, key)
		}
		if st := s.Stats(); !ok && st.Quarantined != 1 {
			t.Fatalf("trial %d (bit %d): miss without quarantine, stats %+v", trial, bit, st)
		}
	}
}

func TestInjectedReadBitflipQuarantines(t *testing.T) {
	reg := faults.New(1)
	reg.Enable(FaultReadBitflip, faults.Spec{On: []int64{2}})
	s, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(20)
	if err := s.Put(key, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("first read should be clean")
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("bit-flipped read served a payload")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Fatalf("stats after injected flip = %+v", st)
	}
	// The slot is free again: a re-fetch stores and serves cleanly.
	if err := s.Put(key, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || string(got) != "precious" {
		t.Fatalf("re-fetched entry = %q, %v", got, ok)
	}
}

func TestPutOverwriteAndConcurrency(t *testing.T) {
	s, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(30)
	done := make(chan struct{})
	for g := 0; g < 6; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("v%d", g))
				if err := s.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && len(got) != 2 {
					t.Errorf("torn read: %q", got)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 6; g++ {
		<-done
	}
}

func TestValidKey(t *testing.T) {
	valid := []string{Sum([]byte("x")), Sum([]byte("x"))[:16], "0123456789abcdef"}
	for _, k := range valid {
		if !ValidKey(k) {
			t.Errorf("ValidKey(%q) = false", k)
		}
	}
	invalid := []string{"", "short", "../../etc/passwd", "0123456789ABCDEF",
		"0123456789abcde.", Sum([]byte("x")) + "00", "0123456789abcdeg"}
	for _, k := range invalid {
		if ValidKey(k) {
			t.Errorf("ValidKey(%q) = true", k)
		}
	}
}

func TestDecodeEntryRejectsDamage(t *testing.T) {
	frame, err := EncodeEntry(testKey(40), []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if key, body, err := DecodeEntry(frame); err != nil || key != testKey(40) || string(body) != "hello" {
		t.Fatalf("round trip = %q, %q, %v", key, body, err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("nope\n{}"),
		"no header":        []byte(magic),
		"truncated":        frame[:len(frame)-1],
		"extended":         append(append([]byte{}, frame...), 'x'),
		"header junk":      []byte(magic + "{\"key\":\"0123456789abcdef\",\"len\":0,\"sum\":\"\",\"extra\":1}\n"),
		"not json header":  []byte(magic + "hello\nworld"),
		"negative length":  []byte(magic + "{\"key\":\"0123456789abcdef\",\"len\":-1,\"sum\":\"x\"}\n"),
		"header-only file": []byte(magic + "{\"key\":\"0123456789abcdef\",\"len\":5,\"sum\":\"x\"}"),
	}
	for name, data := range cases {
		if _, _, err := DecodeEntry(data); err == nil {
			t.Errorf("%s: DecodeEntry accepted damaged frame", name)
		}
	}
}
