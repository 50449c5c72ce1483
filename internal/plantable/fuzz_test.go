package plantable

import (
	"encoding/json"
	"strings"
	"testing"

	"polyufc/internal/model"
	"polyufc/internal/search"
)

// contradictingDoc spells a one-plane table as a 2-socket document (a
// second rho plane repeating the first) whose flat cb is then edited so
// it no longer repeats cb_rho[..][..][0] — the two spellings of the
// rho = 0 plane disagree, and Parse must refuse to pick one.
func contradictingDoc(t testing.TB, tb *Table) []byte {
	twice := func(s [][][]int) [][][]int {
		out := make([][][]int, len(s))
		for i, row := range s {
			for _, cell := range row {
				out[i] = append(out[i], []int{cell[0], cell[0]})
			}
		}
		return out
	}
	w := wireTable{
		Header: tb.Header, RhoAxis: []float64{0, 0.5},
		CB: rhoPlane(tb.CB), BB: rhoPlane(tb.BB), CBR: twice(tb.CB), BBR: twice(tb.BB),
	}
	w.CB[0][0] = (w.CB[0][0] + 1) % tb.GridSize()
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzParsePlanTable drives the plan-table deserializer with arbitrary
// bytes: any input must either parse into a table that validates and
// answers lookups in-range, or return an error — never panic, never a
// half-loaded table. Corrupt, truncated and old-schema tables are the
// crash-recovery surface: serve boots load operator-supplied files.
func FuzzParsePlanTable(f *testing.F) {
	// A small hand-rolled table keeps the seed corpus (and each fuzz
	// worker's warm-up) cheap — the full Build sweep is covered by the
	// equivalence suite, not here.
	tiny := &Table{
		Header: Header{
			Schema:       SchemaVersion,
			Backend:      "fuzz",
			BackendHash:  "0011223344556677",
			CalHash:      "8899aabbccddeeff",
			Objective:    search.ObjectiveEDP.String(),
			Epsilon:      1e-3,
			UncoreMinGHz: 1.2, UncoreMaxGHz: 2.8, CapStepGHz: 0.1,
			OIAxis:  []float64{0.1, 1, 10},
			MemAxis: []float64{0, 1, 10},
		},
		RhoAxis: []float64{0},
		CB:      liftPlane([][]int{{0, 1, 2}, {1, 1, 1}, {2, 1, 0}}),
		BB:      liftPlane([][]int{{3, 3, 3}, {4, 4, 4}, {5, 5, 5}}),
	}
	if err := tiny.Validate(); err != nil {
		f.Fatal(err)
	}
	valid, err := tiny.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("not a table"))
	f.Add(valid[:len(valid)/2])                                    // torn write
	f.Add([]byte(`{"schema":0}`))                                  // pre-versioning file
	f.Add([]byte(`{"schema":99}`))                                 // future schema
	f.Add([]byte(`{"schema":1,"surprise":true}`))                  // unknown field
	f.Add([]byte(strings.Replace(string(valid), "1.2", "NaN", 1))) // poisoned float
	f.Add([]byte(strings.Replace(string(valid), "\"cb\"", "\"bb\"", 1)))
	// Index corruption: a flipped digit inside a surface row.
	if i := strings.Index(string(valid), "\"cb\""); i >= 0 {
		corrupt := []byte(strings.Replace(string(valid[i:]), "0", "999999", 1))
		f.Add(append([]byte(valid[:i]), corrupt...))
	}
	f.Add(contradictingDoc(f, tiny))

	// A deep in-range kernel: if the fuzzed table validates, Lookup must
	// stay total on it (an answer on the table's own grid, or a clean
	// fallback) — Validate's invariants are what make that safe.
	probeModel := model.New(testTarget(f, "bdw").Constants, model.KernelStats{
		Flops: qRef, QDRAM: qRef, QDRAMTime: qRef, OI: 1, Threads: 1,
	})
	probe := func(t *testing.T, tb *Table) {
		f, ok := tb.Lookup(probeModel)
		if !ok {
			return
		}
		if got := tb.GridFreq(tb.GridSize() - 1); f > got {
			t.Fatalf("lookup answered %v above the grid top %v", f, got)
		}
		if f < tb.GridFreq(0) {
			t.Fatalf("lookup answered %v below the grid bottom %v", f, tb.GridFreq(0))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		tb, err := Parse(data)
		if err != nil {
			return
		}
		if tb == nil {
			t.Fatal("Parse returned nil table and nil error")
		}
		// Parse's contract: whatever it accepts already validates.
		if err := tb.Validate(); err != nil {
			t.Fatalf("Parse accepted a table that fails Validate: %v", err)
		}
		// And survives the operations the serve path runs unconditionally.
		if _, err := tb.Marshal(); err != nil {
			t.Fatalf("re-marshal of accepted table failed: %v", err)
		}
		for i := 0; i < tb.GridSize(); i++ {
			_ = tb.GridFreq(i)
		}
		probe(t, tb)
	})
}
