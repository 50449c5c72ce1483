package experiments

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/workloads"
)

// testSuite builds a suite at Test size, calibrating once per test binary.
var cachedSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if cachedSuite == nil {
		s, err := New(workloads.Test, nil)
		if err != nil {
			t.Fatal(err)
		}
		cachedSuite = s
	}
	return cachedSuite
}

func TestFig1SweepShapes(t *testing.T) {
	s := suite(t)
	p := s.Platforms()[0]
	series, err := s.Fig1(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Fig1Kernels) {
		t.Fatalf("series = %d", len(series))
	}
	for _, sr := range series {
		if len(sr.Points) != len(p.UncoreSteps()) {
			t.Fatalf("%s: points = %d", sr.Kernel, len(sr.Points))
		}
		for _, pt := range sr.Points {
			if pt.Seconds <= 0 || pt.Joules <= 0 || pt.EDP <= 0 {
				t.Fatalf("%s: non-positive point %+v", sr.Kernel, pt)
			}
		}
		if sr.BestEDP < p.UncoreMin || sr.BestEDP > p.UncoreMax {
			t.Fatalf("%s: best EDP frequency %f", sr.Kernel, sr.BestEDP)
		}
	}
}

func TestFig5PatternCBSandwich(t *testing.T) {
	s := suite(t)
	pat, err := s.Fig5Pattern()
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Fields(pat)
	if len(parts) != 9 {
		t.Fatalf("pattern = %q", pat)
	}
	if parts[0] != "CB" || parts[8] != "CB" {
		t.Fatalf("sdpa pattern must start and end CB: %q", pat)
	}
	bb := 0
	for _, p := range parts[1:8] {
		if p == "BB" {
			bb++
		}
	}
	if bb < 5 {
		t.Fatalf("middle region not bandwidth bound: %q", pat)
	}
}

func TestFig6MLCharacterization(t *testing.T) {
	// Classification agreement is checked at bench size (Table-II shapes);
	// test-size kernels sit too close to the CB/BB boundary.
	s, err := New(workloads.Bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Fig6(s.Platforms()[1], []string{"sdpa-bert", "lm-head-gpt2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OI <= 0 {
			t.Fatalf("%s: OI = %f", r.Kernel, r.OI)
		}
		if r.HWGFlops <= 0 || r.EstGFlops <= 0 {
			t.Fatalf("%s: non-positive performance", r.Kernel)
		}
		if !r.Correct {
			t.Fatalf("%s: model class %v != HW class %v (OI %.2f)",
				r.Kernel, r.Class, r.HWClass, r.OI)
		}
	}
	// sdpa (BERT) must be CB on RPL at its Table-II shape (Sec. VII-D).
	if rows[0].Class.String() != "CB" {
		t.Fatalf("sdpa-bert on RPL = %v (OI %.2f), paper reports CB", rows[0].Class, rows[0].OI)
	}
}

func TestFig7ImprovesAtBenchSize(t *testing.T) {
	// Test-size kernels run for microseconds, where the cap-switch latency
	// legitimately dominates; the Fig. 7 claim is checked at bench size on
	// streaming kernels (fast to simulate).
	s, err := New(workloads.Bench, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Platforms()[1]
	rows, err := s.Fig7(p, []string{"mvt", "gemver"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BaselineEDP <= 0 || r.PolyUFCEDP <= 0 {
			t.Fatalf("%s: bad EDP values", r.Kernel)
		}
		switch r.Kernel {
		case "mvt":
			if r.EDPGain <= 0 {
				t.Fatalf("mvt: no EDP improvement (%.2f%%)", 100*r.EDPGain)
			}
		default:
			// Per-nest EDP capping is not globally optimal for multi-nest
			// programs (the paper reports regressions on some kernels,
			// Sec. VII-E); bound the loss.
			if r.EDPGain < -0.05 {
				t.Fatalf("%s: EDP regression %.2f%%", r.Kernel, 100*r.EDPGain)
			}
		}
	}
}

func TestFig8SeriesComplete(t *testing.T) {
	s := suite(t)
	r, err := s.Fig8("gemm-pow2", s.Platforms()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(s.Platforms()[0].UncoreSteps()) {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, pt := range r.Points {
		if pt.EDPSetAssoc <= 0 || pt.EDPFullAssoc <= 0 || pt.EDPHW <= 0 {
			t.Fatalf("non-positive EDP at %.1f", pt.FGHz)
		}
	}
}

func TestTab4Breakdown(t *testing.T) {
	s := suite(t)
	rows, err := s.Tab4([]string{"gemm", "mvt"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Timings.Total() <= 0 {
			t.Fatalf("%s: no time recorded", r.Kernel)
		}
		if r.Timings.Of(core.StageCacheModel) <= 0 {
			t.Fatalf("%s: no cache-model time", r.Kernel)
		}
	}
}

func TestOverheadStudy(t *testing.T) {
	s := suite(t)
	for _, p := range s.Platforms() {
		r, err := s.Overhead(p)
		if err != nil {
			t.Fatal(err)
		}
		if r.CapSwitches == 0 {
			t.Fatalf("%s: no cap switches", p.Name)
		}
		wantPer := p.CapLatency
		if r.PerSwitch.Seconds() != wantPer {
			t.Fatalf("%s: per-switch %v", p.Name, r.PerSwitch)
		}
		if r.Cumulative.Seconds() <= 0 {
			t.Fatalf("%s: no cumulative overhead", p.Name)
		}
	}
}

func TestDedupStudy(t *testing.T) {
	s := suite(t)
	r, err := s.Dedup("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if r.BasicsWith >= r.BasicsWithout {
		t.Fatalf("dedup did not reduce basics: %d vs %d", r.BasicsWith, r.BasicsWithout)
	}
	if !r.PairCountsEqual {
		t.Fatal("dedup changed the reuse-pair count")
	}
	// The study shrinks copies of the kernel's loops, never the module
	// workloads shares with every other caller.
	k, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	if mod.ContentHash() != sha256.Sum256([]byte(mod.Print())) {
		t.Fatal("the dedup study wrote the shared gemm module")
	}
}

func TestRenderTablesSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := suite(t)
	s.Out = &buf
	for _, id := range []string{"tab1", "tab2", "tab3"} {
		if err := s.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"B^t_DRAM", "polybench", "i5-13600", "BDW", "RPL", "gemm"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
	s.Out = nil
}

func TestRenderFiguresSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := suite(t)
	s.Out = &buf
	defer func() { s.Out = nil }()
	for _, id := range []string{"fig1", "fig5", "fig8", "overhead", "dedup", "dufs", "joint", "tilesize", "valid", "tab4"} {
		if err := s.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 1", "Fig. 5", "Fig. 8", "cap overhead", "duplicate elimination",
		"DUFS governor", "core+uncore", "tile size", "Validation", "compile-time",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	s := suite(t)
	if err := s.Run("fig99"); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestExperimentIDsSorted(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 11 {
		t.Fatalf("ids = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
}

func TestRenderFig6AndFig7Smoke(t *testing.T) {
	var buf bytes.Buffer
	s := suite(t)
	s.Out = &buf
	defer func() { s.Out = nil }()
	if err := s.Run("fig6"); err != nil {
		t.Fatal(err)
	}
	if err := s.Run("fig7"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classification agreement", "geomean EDP improvement", "gemm", "nussinov"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
	if s.Constants("BDW") == nil || s.Constants("RPL") == nil {
		t.Fatal("calibrated constants missing")
	}
}

func TestGeomeanEDPGain(t *testing.T) {
	rows := []Fig7Row{
		{BaselineEDP: 1, PolyUFCEDP: 0.5},
		{BaselineEDP: 1, PolyUFCEDP: 2},
	}
	g := GeomeanEDPGain(rows)
	if g > 1e-9 || g < -1e-9 { // geomean of 0.5 and 2 is 1 -> 0% gain
		t.Fatalf("geomean gain = %f, want 0", g)
	}
	if GeomeanEDPGain(nil) != 0 {
		t.Fatal("empty rows must give 0")
	}
}

func TestRenderTilingSmoke(t *testing.T) {
	var buf bytes.Buffer
	s := suite(t)
	s.Out = &buf
	defer func() { s.Out = nil }()
	if err := s.Run("tiling"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"per-strategy phase-change rerun", "pluto:", "cacheoblivious:", "latency:", "auto:", "caps per strategy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The sweep must surface at least one divergence witness at Test
	// size: on cholesky and ludcmp both cacheoblivious and latency pick
	// a bandwidth-bound cap one grid step above Pluto-32.
	if !strings.Contains(out, "differs from pluto") && !strings.Contains(out, "diverges from pluto") {
		t.Fatalf("no strategy diverged from pluto anywhere:\n%s", out)
	}
}

func TestTilingCapSweepDisagreesWithPluto(t *testing.T) {
	s := suite(t)
	p := s.Platforms()[0] // the witnesses fire on both platforms
	rows, err := s.TilingCapSweep(p, TilingWitnessKernels)
	if err != nil {
		t.Fatal(err)
	}
	byStrategy := map[string]bool{}
	for _, r := range rows {
		if r.Diverges {
			byStrategy[strings.SplitN(r.Strategy, ":", 2)[0]] = true
		}
	}
	// The ISSUE acceptance requires a witness kernel per alternative
	// strategy: cacheoblivious and latency must each flip a class or cap.
	for _, want := range []string{"cacheoblivious", "latency"} {
		if !byStrategy[want] {
			t.Fatalf("%s produced no diverging row: %+v", want, rows)
		}
	}
}
