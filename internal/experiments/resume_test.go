package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/journal"
	"polyufc/internal/platform"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// openJournal opens a journal for a suite, failing the test on error.
func openJournal(t *testing.T, path string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// The acceptance scenario: a journaled sweep killed mid-run and restarted
// with -resume replays the completed (kernel, frequency) entries instead
// of re-evaluating them, and the rendered figures are byte-identical to an
// uninterrupted run.
func TestJournaledSweepResumesByteIdentical(t *testing.T) {
	ids := []string{"fig1", "fig7"}
	baseline, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, baseline, ids...)

	// Uninterrupted journaled run: same bytes, journal fully populated.
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.jsonl")
	full, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	full.Journal = openJournal(t, fullPath)
	if got := renderAll(t, full, ids...); !bytes.Equal(want, got) {
		t.Fatal("journaled run differs from unjournaled run")
	}
	st := full.Journal.Stats()
	if st.Entries == 0 || st.Appended != int64(st.Entries) {
		t.Fatalf("full run journal stats %+v", st)
	}

	// Simulate the crash: keep roughly half the journal lines (plus a torn
	// tail the reopened journal must drop) and restart from it.
	data, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	half := lines[: len(lines)/2 : len(lines)/2]
	truncated := append(bytes.Join(half, nil), []byte(`{"key":"fig1/torn`)...)
	crashPath := filepath.Join(dir, "crash.jsonl")
	if err := os.WriteFile(crashPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Journal = openJournal(t, crashPath)
	preloaded := resumed.Journal.Stats().Entries
	if preloaded == 0 || preloaded >= st.Entries {
		t.Fatalf("truncation produced %d of %d entries", preloaded, st.Entries)
	}
	if resumed.Journal.Stats().Dropped != 1 {
		t.Fatalf("torn tail not dropped: %+v", resumed.Journal.Stats())
	}
	if got := renderAll(t, resumed, ids...); !bytes.Equal(want, got) {
		t.Fatal("resumed run differs from uninterrupted run")
	}
	rst := resumed.Journal.Stats()
	if rst.Replayed == 0 {
		t.Fatal("resume re-evaluated every unit: no replays")
	}
	if rst.Appended != int64(st.Entries-preloaded) {
		t.Fatalf("resume recomputed %d units, want exactly the missing %d",
			rst.Appended, st.Entries-preloaded)
	}
	if rst.Entries != st.Entries {
		t.Fatalf("resumed journal holds %d entries, full run had %d", rst.Entries, st.Entries)
	}
}

// A second run over a complete journal replays everything: zero appends,
// same bytes — the figure renders purely from checkpoints.
func TestJournaledSweepFullReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	first, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	first.Journal = openJournal(t, path)
	want := renderAll(t, first, "fig1")
	entries := first.Journal.Stats().Entries
	if entries == 0 {
		t.Fatal("no journal entries written")
	}

	second, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	second.Journal = openJournal(t, path)
	got := renderAll(t, second, "fig1")
	if !bytes.Equal(want, got) {
		t.Fatal("full replay differs from original run")
	}
	st := second.Journal.Stats()
	if st.Appended != 0 {
		t.Fatalf("full replay still recomputed %d units", st.Appended)
	}
	if st.Replayed == 0 {
		t.Fatal("no replays counted")
	}
	// Replay never touched the compiler: every point came from the journal.
	if runs := second.StageStats()[core.StagePreprocess].Runs; runs != 0 {
		t.Fatalf("full replay compiled %d kernels", runs)
	}
}

// Fig. 1 on a 0.05 GHz cap grid: every frequency is its own unit, so an
// uninterrupted journaled run renders what the journal-less run renders.
// (A key that rounds the frequency to one decimal makes 0.6 and 0.65 GHz
// one entry, and the later point replays the earlier one's numbers.)
func TestJournaledSweepFractionalGrid(t *testing.T) {
	b, err := platform.LoadFile(filepath.Join("..", "..", "platforms", "wide-uncore.json"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	render := func(j *journal.Journal) []byte {
		s, err := NewBackends(workloads.Test, nil, []*platform.Backend{b})
		if err != nil {
			t.Fatal(err)
		}
		s.Journal = j
		steps = len(s.Platforms()[0].UncoreSteps())
		return renderAll(t, s, "fig1")
	}
	want := render(nil)
	j := openJournal(t, filepath.Join(t.TempDir(), "j.jsonl"))
	if got := render(j); !bytes.Equal(want, got) {
		t.Fatal("journaled Fig. 1 on the 0.05 GHz grid differs from the unjournaled run")
	}
	if j.Stats().Entries != steps*len(Fig1Kernels) {
		t.Fatalf("journal holds %d entries, want one per (kernel, frequency): %d", j.Stats().Entries, steps*len(Fig1Kernels))
	}
}

// Units are keyed by what they computed, so one journal can be handed
// from configuration to configuration: attached to a suite under another
// tiling or another size it misses and the suite renders what a
// journal-less suite renders; handed back to the first configuration it
// replays every row.
func TestJournaledSweepKeyedByConfiguration(t *testing.T) {
	kernels := []string{"gemm", "atax", "trisolv"}
	path := filepath.Join(t.TempDir(), "j.jsonl")
	fig7 := func(size workloads.SizeClass, spec tiling.Spec, kernels []string, journaled bool) ([]Fig7Row, journal.Stats) {
		s, err := New(size, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Tiling = spec
		if journaled {
			j, err := journal.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			s.Journal = j
		}
		rows, err := s.Fig7(s.Platforms()[0], kernels)
		if err != nil {
			t.Fatal(err)
		}
		return rows, s.Journal.Stats()
	}
	first, st := fig7(workloads.Test, tiling.Spec{}, kernels, true)
	if st.Appended != int64(len(kernels)) {
		t.Fatalf("first run journal stats %+v", st)
	}
	entries := len(kernels)
	for _, other := range []struct {
		name    string
		size    workloads.SizeClass
		spec    tiling.Spec
		kernels []string // a suffix of kernels: Bench-size rows are expensive
	}{
		{"tiling", workloads.Test, tiling.Spec{Name: tiling.NamePluto, Size: 4}, kernels},
		{"size", workloads.Bench, tiling.Spec{}, kernels[2:]},
	} {
		want, _ := fig7(other.size, other.spec, other.kernels, false)
		if reflect.DeepEqual(want, first[len(first)-len(want):]) {
			t.Fatalf("%s: the configuration computes the first run's rows — the test would be vacuous", other.name)
		}
		got, st := fig7(other.size, other.spec, other.kernels, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a journal written under another configuration answered:\n got %+v\nwant %+v", other.name, got, want)
		}
		if st.Appended != int64(len(want)) {
			t.Fatalf("%s: stats %+v, want every row recomputed and recorded beside the first run's", other.name, st)
		}
		entries += len(want)
	}
	again, st := fig7(workloads.Test, tiling.Spec{}, kernels, true)
	if !reflect.DeepEqual(again, first) || st.Appended != 0 || st.Entries != entries {
		t.Fatalf("same-configuration resume: stats %+v, rows %+v, want %+v", st, again, first)
	}
}
