package core

import (
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/roofline"
	"polyufc/internal/workloads"
)

var testTargets = map[string]*roofline.Target{}

// targetFor calibrates each platform once per test binary and hands out
// the resolved backend handle configs are built from.
func targetFor(t testing.TB, p *hw.Platform) *roofline.Target {
	t.Helper()
	if tg, ok := testTargets[p.Name]; ok {
		return tg
	}
	tg, err := roofline.Resolve(p.Backend)
	if err != nil {
		t.Fatal(err)
	}
	testTargets[p.Name] = tg
	return tg
}

func compileKernel(t *testing.T, name string, size workloads.SizeClass, p *hw.Platform) *Result {
	t.Helper()
	cfg := DefaultConfig(targetFor(t, p))
	if size == workloads.Test {
		// Test-size kernels run for microseconds; disable the cap
		// profitability gate so insertion behaviour stays observable.
		cfg.AmortizeFactor = 0
	}
	return compileKernelCfg(t, name, size, cfg)
}

func compileKernelCfg(t *testing.T, name string, size workloads.SizeClass, cfg Config) *Result {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(size)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompileGemmInsertsCaps(t *testing.T) {
	p := hw.BDW()
	res := compileKernel(t, "gemm", workloads.Test, p)
	if res.CapsInserted == 0 {
		t.Fatal("no caps inserted")
	}
	if len(res.Reports) < 2 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	// The module must interleave caps and nests only.
	for _, op := range res.Module.Funcs[0].Ops {
		switch op.(type) {
		case *ir.SetUncoreCap, *ir.Nest:
		default:
			t.Fatalf("unexpected op %s", op.OpName())
		}
	}
	// Every report must carry a valid cap.
	for _, r := range res.Reports {
		if r.CapGHz < p.UncoreMin-1e-9 || r.CapGHz > p.UncoreMax+1e-9 {
			t.Fatalf("%s: cap %.2f out of range", r.Label, r.CapGHz)
		}
		if r.Est.EDP <= 0 {
			t.Fatalf("%s: bad estimate", r.Label)
		}
	}
	if res.Timings.Total() <= 0 {
		t.Fatal("no timings recorded")
	}
}

func TestGemmUpdateIsCBAndCappedLow(t *testing.T) {
	p := hw.BDW()
	res := compileKernel(t, "gemm", workloads.Bench, p)
	var upd *KernelReport
	for i := range res.Reports {
		if res.Reports[i].OI > 20 {
			upd = &res.Reports[i]
		}
	}
	if upd == nil {
		t.Fatal("no high-OI report for gemm update")
	}
	if upd.Class != roofline.ComputeBound {
		t.Fatalf("gemm update class = %v", upd.Class)
	}
	if !upd.Tiled {
		t.Fatal("gemm update not tiled")
	}
	if upd.CapGHz > (p.UncoreMin+p.UncoreMax)/2 {
		t.Fatalf("CB gemm capped at %.1f GHz (high)", upd.CapGHz)
	}
	// Model-predicted EDP at the cap must beat the driver default.
	if upd.Est.EDP >= upd.EstDefault.EDP {
		t.Fatal("no predicted EDP improvement")
	}
}

func TestMvtIsBBAndCappedHigh(t *testing.T) {
	p := hw.RPL()
	res := compileKernel(t, "mvt", workloads.Bench, p)
	for _, r := range res.Reports {
		if r.Class != roofline.BandwidthBound {
			t.Fatalf("%s: class = %v (OI %.2f), want BB", r.Label, r.Class, r.OI)
		}
		if r.CapGHz <= (p.UncoreMin+p.UncoreMax)/2 {
			t.Fatalf("%s: BB capped at %.1f GHz (low)", r.Label, r.CapGHz)
		}
	}
}

func TestCompiledModuleRunsAndImprovesEDP(t *testing.T) {
	// End to end at bench size (test-size kernels finish in microseconds,
	// where the 35us cap-switch latency legitimately dominates — the
	// amortization effect of Sec. VII-F): compile mvt, run on one machine
	// (shared cache profiles), compare against the Pluto baseline at the
	// driver default.
	p := hw.RPL()
	res := compileKernel(t, "mvt", workloads.Bench, p)

	m := hw.NewMachine(p)
	var baseline hw.RunResult
	m.SetUncoreCap(p.UncoreMax)
	for _, op := range res.Module.Funcs[0].Ops {
		if nest, ok := op.(*ir.Nest); ok {
			prof, err := m.Profile(nest)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Measure(prof)
			baseline.Seconds += r.Seconds
			baseline.PkgJoules += r.PkgJoules
		}
	}
	baseline.EDP = baseline.PkgJoules * baseline.Seconds

	// PolyUFC: the compiled module including caps, on the same machine.
	capped, err := m.RunFunc(res.Module.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if capped.EDP >= baseline.EDP {
		t.Fatalf("no measured EDP improvement: capped %.6g vs baseline %.6g",
			capped.EDP, baseline.EDP)
	}
}

func TestSDPAPhasesCBBBCB(t *testing.T) {
	// Fig. 5: at linalg granularity sdpa is CB, then a BB* middle region,
	// then CB; at torch granularity the phases are hidden in one op.
	p := hw.RPL()
	k, _ := workloads.ByName("sdpa-bert")
	mod, err := k.Build(workloads.Bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(targetFor(t, p))
	phases, err := PhaseStudy(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lin := phases[ir.DialectLinalg]
	if len(lin) != 9 {
		t.Fatalf("linalg phases = %d, want 9", len(lin))
	}
	if lin[0].Class != roofline.ComputeBound || lin[8].Class != roofline.ComputeBound {
		t.Fatalf("matmul phases not CB: %v / %v (OI %.1f / %.1f)",
			lin[0].Class, lin[8].Class, lin[0].OI, lin[8].OI)
	}
	bbCount := 0
	for _, ph := range lin[1:8] {
		if ph.Class == roofline.BandwidthBound {
			bbCount++
		}
	}
	if bbCount < 5 {
		t.Fatalf("middle region has only %d BB phases of 7", bbCount)
	}
	if len(phases[ir.DialectTorch]) != 1 {
		t.Fatalf("torch phases = %d, want 1", len(phases[ir.DialectTorch]))
	}
}

func TestTorchGranularityMergesCaps(t *testing.T) {
	p := hw.RPL()
	k, _ := workloads.ByName("sdpa-bert")
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(targetFor(t, p))
	cfg.CapLevel = ir.DialectTorch
	cfg.AmortizeFactor = 0
	res, err := Compile(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := 0
	for _, op := range res.Module.Funcs[0].Ops {
		if _, ok := op.(*ir.SetUncoreCap); ok {
			caps++
		}
	}
	if caps != 1 {
		t.Fatalf("torch-level caps = %d, want 1 (one sdpa group)", caps)
	}
	if res.CapsRemoved == 0 {
		t.Fatal("no caps merged")
	}
}

func TestLinalgGranularityRemovesEqualCaps(t *testing.T) {
	// 3mm has three identical matmuls plus a fill: redundant equal caps
	// must be suppressed (insertion-time dedup plus rewrite patterns), so
	// the cap count stays below the nest count.
	p := hw.BDW()
	res := compileKernel(t, "3mm", workloads.Test, p)
	caps, nests := 0, 0
	for _, op := range res.Module.Funcs[0].Ops {
		switch op.(type) {
		case *ir.SetUncoreCap:
			caps++
		case *ir.Nest:
			nests++
		}
	}
	if caps == 0 {
		t.Fatal("no caps inserted")
	}
	if caps >= nests {
		t.Fatalf("equal caps not deduplicated: %d caps for %d nests", caps, nests)
	}
}

func TestProfitabilityGate(t *testing.T) {
	// With the default gate, microsecond-scale test-size kernels get no
	// caps (a switch would dominate); with the gate disabled they do.
	p := hw.BDW()
	cfgGated := DefaultConfig(targetFor(t, p))
	gated := compileKernelCfg(t, "gemm", workloads.Test, cfgGated)
	if gated.CapsInserted != 0 {
		t.Fatalf("gate off? %d caps inserted for a microsecond kernel", gated.CapsInserted)
	}
	cfgOpen := DefaultConfig(targetFor(t, p))
	cfgOpen.AmortizeFactor = 0
	open := compileKernelCfg(t, "gemm", workloads.Test, cfgOpen)
	if open.CapsInserted == 0 {
		t.Fatal("no caps inserted with the gate disabled")
	}
	// Bench-size kernels run long enough to pass the default gate.
	bench := compileKernel(t, "mvt", workloads.Bench, p)
	if bench.CapsInserted == 0 {
		t.Fatal("bench-size kernel gated out")
	}
}

func TestCompileAllKernelsTestSize(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	for _, k := range workloads.All() {
		mod, err := k.Build(workloads.Test)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		res, err := Compile(mod, cfg)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if len(res.Reports) == 0 {
			t.Fatalf("%s: no reports", k.Name)
		}
	}
}
