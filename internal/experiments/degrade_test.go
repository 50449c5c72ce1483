package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/workloads"
)

// A sweep containing one unresolvable kernel dies under Strict and yields
// a degradation summary line under BestEffort.
func TestFig7SweepToleratesFailingKernel(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Platforms()[0]
	kernels := []string{"gemm", "no-such-kernel", "mvt"}

	if _, err := s.Fig7(p, kernels); err == nil {
		t.Fatal("strict sweep survived an unknown kernel")
	}

	var out bytes.Buffer
	s.Out = &out
	s.Degrade = core.BestEffort
	rows, err := s.Fig7(p, kernels)
	if err != nil {
		t.Fatalf("best-effort sweep died: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Degraded || rows[2].Degraded {
		t.Fatal("healthy kernels degraded")
	}
	if !rows[1].Degraded {
		t.Fatal("failing kernel not marked degraded")
	}
	if rows[0].BaselineEDP <= 0 || rows[2].BaselineEDP <= 0 {
		t.Fatal("healthy rows not measured")
	}
	// The geomean skips the degraded row instead of poisoning the figure.
	if g := GeomeanEDPGain(rows); g == 0 {
		t.Fatal("geomean dropped the healthy rows")
	}
	s.renderDegraded()
	if !strings.Contains(out.String(), "degraded (best-effort): no-such-kernel") {
		t.Fatalf("no degradation summary in output:\n%s", out.String())
	}
}

// A poisoned nest inside one kernel degrades that compilation per nest
// while the sweep and the other kernels stay intact end to end.
func TestSuiteBestEffortWithInjectedCompilerFault(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Degrade = core.BestEffort
	s.Concurrency = 1 // deterministic injection ordering
	s.Faults = faults.New(11)
	s.Faults.Enable(core.FaultCacheModel, faults.Spec{On: []int64{1}})
	p := s.Platforms()[1]
	rows, err := s.Fig7(p, []string{"gemm", "mvt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Degraded {
			t.Fatalf("%s: whole kernel dropped; the poison hits one nest only", r.Kernel)
		}
		if r.BaselineEDP <= 0 {
			t.Fatalf("%s: not measured", r.Kernel)
		}
	}
	if s.Faults.Fired(core.FaultCacheModel) != 1 {
		t.Fatalf("fault fired %d times", s.Faults.Fired(core.FaultCacheModel))
	}
	// The joint study picks its dominant nest past the uncharacterized one.
	s.Faults.Enable(core.FaultCacheModel, faults.Spec{On: []int64{1}})
	joint, err := s.Joint(p, []string{"gemm", "mvt"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range joint {
		if r.JointEDP <= 0 {
			t.Fatalf("%s: joint row %+v", r.Kernel, r)
		}
	}
	if s.Faults.Fired(core.FaultCacheModel) != 1 {
		t.Fatalf("joint: fault fired %d times", s.Faults.Fired(core.FaultCacheModel))
	}
}

// A kernel with no characterized nest has nothing to select frequencies by:
// the joint study marks its row degraded and notes it, and the other
// kernels' rows stand.
func TestJointDegradesUncharacterizedKernel(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s.Out = &out
	s.Degrade = core.BestEffort
	s.Faults = faults.New(11)
	p := s.Platforms()[1]
	// mvt's two nests are the first two cache-model calls.
	s.Faults.Enable(core.FaultCacheModel, faults.Spec{On: []int64{1, 2}})
	rows, err := s.Joint(p, []string{"mvt", "gemm"})
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].Degraded || rows[1].Degraded || rows[1].JointEDP <= 0 {
		t.Fatalf("rows %+v, want mvt degraded and gemm measured", rows)
	}
	s.renderDegraded()
	if !strings.Contains(out.String(), "degraded (best-effort): mvt: joint: no nest was characterized") {
		t.Fatalf("no degradation summary in output:\n%s", out.String())
	}
}

// With faults armed the stage cache is bypassed, so injection state never
// leaks into memoized snapshots; disarmed, a configuration compiled again is
// a chain of stage hits.
func TestFaultsBypassCompileCache(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	compile := func() {
		t.Helper()
		if _, err := s.compile("gemm", core.DefaultConfig(s.Target(s.Platforms()[0].Name))); err != nil {
			t.Fatal(err)
		}
	}
	// New calibrates through the suite's calibration memo, not the stage
	// cache, so nothing has touched the stage cache so far.
	hits0, misses0 := s.StageCacheStats()
	s.Faults = faults.New(1)
	compile()
	compile()
	if hits, misses := s.StageCacheStats(); hits != hits0 || misses != misses0 {
		t.Fatalf("stage cache touched while faults armed: %d/%d hits/misses, want %d/%d",
			hits, misses, hits0, misses0)
	}
	// Disarmed, the stage cache works as before: the second compile is a
	// chain of stage hits that misses nothing.
	s.Faults = nil
	compile()
	hits, misses := s.StageCacheStats()
	compile()
	if h, m := s.StageCacheStats(); h == hits || m != misses {
		t.Fatalf("second disarmed compile: stage hits %d -> %d, misses %d -> %d, want more hits and no miss",
			hits, h, misses, m)
	}
	if pre := s.StageStats()[core.StagePreprocess]; pre.Runs != 4 || pre.CacheHits != 1 {
		t.Fatalf("preprocess %+v, want 4 runs (two armed, two disarmed) and 1 cache hit", pre)
	}
}

// Every experiment runs to completion under best-effort while the cache
// model fails, on every call and on a seeded share of them: no panic and
// no error. A kernel an experiment drops is named in that experiment's
// degradation summary and in none of its rows, and no note outlives its
// experiment. With every call failing, the experiments that compare
// against or select by the model have nothing to show but the summary.
func TestBestEffortEveryExperiment(t *testing.T) {
	modelBound := map[string]bool{"fig6": true, "fig8": true, "joint": true, "valid": true}
	for _, p := range []float64{1, 0.3} {
		s, err := New(workloads.Test, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Degrade = core.BestEffort
		s.Concurrency = 1
		s.Faults = faults.New(3)
		s.Faults.Enable(core.FaultCacheModel, faults.Spec{P: p})
		for _, id := range ExperimentIDs() {
			if id == "all" {
				continue
			}
			var out bytes.Buffer
			s.Out = &out
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("p=%g %s: panic: %v", p, id, r)
					}
				}()
				if err := s.Run(id); err != nil {
					t.Fatalf("p=%g %s: %v", p, id, err)
				}
			}()
			if notes := s.drainNotes(); len(notes) > 0 {
				t.Fatalf("p=%g %s: notes left unrendered: %v", p, id, notes)
			}
			// A summary covers the rows printed since the previous one (a
			// multi-platform experiment summarizes each platform's block).
			const mark = "degraded (best-effort): "
			var rows []string
			dropped := 0
			for _, line := range strings.Split(out.String(), "\n") {
				_, note, ok := strings.Cut(line, mark)
				if !ok {
					if dropped > 0 {
						rows, dropped = nil, 0
					}
					rows = append(rows, line)
					continue
				}
				dropped++
				kernel, _, _ := strings.Cut(note, ":")
				for _, row := range rows {
					if slices.Contains(strings.Fields(row), kernel) {
						t.Fatalf("p=%g %s: dropped kernel %s still has a row %q", p, id, kernel, row)
					}
				}
			}
			if p == 1 && modelBound[id] && !strings.Contains(out.String(), mark) {
				t.Fatalf("%s: every cache model failed, yet nothing was dropped:\n%s", id, out.String())
			}
		}
	}
}
