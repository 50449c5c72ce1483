package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"polyufc/internal/cachemodel"
	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
	"polyufc/internal/workloads"
)

// RenderTab1 prints the calibrated roofline constants of Table I.
func (s *Suite) RenderTab1() error {
	s.printf("== Tab. I: performance/power roofline constants (one-time microbenchmarks) ==\n")
	for _, p := range s.plats {
		c := s.Constants(p.Name)
		s.printf("-- %s\n", p.Name)
		s.printf("   t_FPU       %.4g s/flop  (peak %.1f GF/s)\n", c.TFpu, c.PeakGFlops)
		s.printf("   t_byte      %.4g s/B     (peak %.1f GB/s at f_max)\n", c.TByteMax, c.PeakGBs)
		s.printf("   B^t_DRAM    %.2f FpB (time balance; CB/BB boundary)\n", c.BtDRAM)
		s.printf("   B^e_DRAM    %.2f (energy balance)\n", c.BeDRAM)
		s.printf("   e_FPU       %.4g J/flop   p^_FPU %.1f W\n", c.EFpu, c.PFpuHat)
		s.printf("   e_byte      %.4g J/B      p^_byte(f_max) %.1f W\n", c.EByte, c.PByteHat)
		s.printf("   p_con       %.1f W\n", c.PCon)
		s.printf("   M^t(f)      %.4g/f + %.4g s/B (R^2 %.4f)\n", c.MissLatA, c.MissLatB, c.MissLatR2)
		s.printf("   kappa(f)    (%.4g*f + %.4g) W per B/s (R^2 %.4f), idle %.2f W/GHz\n",
			c.AlphaP, c.GammaP, c.PowerR2, c.IdleWPerGHz)
		s.printf("   P^_DRAM(f)  %.2f*f + %.2f W\n", c.PhatAlpha, c.PhatGamma)
		s.printf("   H_ci        %v s/access\n", c.HitLatency)
	}
	return nil
}

// RenderTab2 prints the benchmark inventory of Table II.
func (s *Suite) RenderTab2() error {
	s.printf("== Tab. II: benchmarks ==\n")
	s.printf("   %-18s %-10s %-12s %s\n", "kernel", "suite", "category", "paper problem size")
	for _, k := range workloads.All() {
		s.printf("   %-18s %-10s %-12s %s\n", k.Name, k.Suite, k.Category, k.PaperSize)
	}
	return nil
}

// RenderTab3 prints the platform table of Table III.
func (s *Suite) RenderTab3() error {
	s.printf("== Tab. III: microarchitectures ==\n")
	s.printf("   %-5s %-26s %9s %11s %13s %10s\n",
		"arch", "CPU", "released", "core (GHz)", "uncore (GHz)", "cap step")
	for _, p := range s.plats {
		// Shortest representation so sub-0.1 grids (0.05) don't round to 0.1.
		step := strconv.FormatFloat(p.CapStep, 'f', -1, 64)
		s.printf("   %-5s %-26s %9d %5.1f-%-5.1f %6.1f-%-6.1f %7s GHz\n",
			p.Name, p.CPU, p.Released, p.CoreMin, p.CoreMax, p.UncoreMin, p.UncoreMax, step)
	}
	for _, p := range s.plats {
		s.printf("   %s caches:", p.Name)
		for _, l := range p.Cache.Levels {
			s.printf(" %s %dKiB/%d-way", l.Name, l.SizeBytes>>10, l.Ways())
		}
		s.printf("\n")
	}
	return nil
}

// Tab4Row is one kernel's compile-time breakdown.
type Tab4Row struct {
	Kernel  string
	Timings core.Timings
}

// Tab4 measures the PolyUFC compile-time breakdown per kernel (Table IV)
// on the BDW cache configuration, as in the paper.
func (s *Suite) Tab4(kernels []string) ([]Tab4Row, error) {
	p := s.plats[0] // BDW per the table caption
	var out []Tab4Row
	for _, name := range kernels {
		k, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		mod, err := k.Build(s.Size)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(s.targets[p.Name])
		res, err := core.Compile(mod, cfg)
		if err != nil {
			return nil, fmt.Errorf("tab4 %s: %w", name, err)
		}
		out = append(out, Tab4Row{Kernel: name, Timings: res.Timings})
	}
	return out, nil
}

// RenderTab4 prints the compile-time breakdown over the full suite.
func (s *Suite) RenderTab4() error {
	var names []string
	for _, k := range workloads.All() {
		names = append(names, k.Name)
	}
	rows, err := s.Tab4(names)
	if err != nil {
		return err
	}
	s.printf("== Tab. IV: compile-time breakdown (BDW cache config, ms) ==\n")
	s.printf("   %-18s %10s %10s %12s %10s %10s\n",
		"kernel", "preprocess", "pluto", "polyufc-cm", "steps4-6", "total")
	for _, r := range rows {
		pre, tile, cm, rest := r.Timings.Tab4()
		s.printf("   %-18s %10.2f %10.2f %12.2f %10.2f %10.2f\n",
			r.Kernel, ms(pre), ms(tile), ms(cm), ms(rest), ms(r.Timings.Total()))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// OverheadResult is the Sec. VII-F cap-switch overhead study.
type OverheadResult struct {
	Platform    string
	PerSwitch   time.Duration
	Kernels     int
	CapSwitches int64
	Cumulative  time.Duration
	RunTime     time.Duration
}

// Overhead runs the multi-kernel sdpa (GEMMA2) benchmark and reports the
// inter-kernel cap overhead. The profitability gate is disabled so every
// kernel carries its own cap, as in the paper's Sec. VII-F measurement.
func (s *Suite) Overhead(p *hw.Platform) (*OverheadResult, error) {
	cfg := core.DefaultConfig(s.targets[p.Name])
	cfg.AmortizeFactor = 0
	k, err := s.measure("sdpa-gemma2", cfg)
	if err != nil {
		return nil, err
	}
	run, err := k.m.RunFunc(k.res.Module.Funcs[0])
	if err != nil {
		return nil, err
	}
	return &OverheadResult{
		Platform:    p.Name,
		PerSwitch:   time.Duration(p.CapLatency * 1e9),
		Kernels:     len(k.res.Reports),
		CapSwitches: k.m.CapSwitches(),
		Cumulative:  time.Duration(float64(k.m.CapSwitches()) * p.CapLatency * 1e9),
		RunTime:     time.Duration(run.Seconds * 1e9),
	}, nil
}

// RenderOverhead prints the overhead study for both platforms.
func (s *Suite) RenderOverhead() error {
	s.printf("== Sec. VII-F: inter-kernel cap overhead (sdpa GEMMA2) ==\n")
	for _, p := range s.plats {
		r, err := s.Overhead(p)
		if err != nil {
			return err
		}
		s.printf("   %s: %d kernels, %d cap switches x %v = %v cumulative (run %v)\n",
			r.Platform, r.Kernels, r.CapSwitches, r.PerSwitch, r.Cumulative, r.RunTime)
	}
	return nil
}

// DedupResult is the footnote-17 duplicate-elimination study.
type DedupResult struct {
	Kernel          string
	BasicsWith      int
	BasicsWithout   int
	TimeWith        time.Duration
	TimeWithout     time.Duration
	Speedup         float64
	PairCountsEqual bool
}

// Dedup measures reuse-pair construction and counting with and without
// duplicate elimination for one kernel's first statement.
func (s *Suite) Dedup(kernelName string) (*DedupResult, error) {
	k, err := workloads.ByName(kernelName)
	if err != nil {
		return nil, err
	}
	mod, err := k.BuildAffine(workloads.Test)
	if err != nil {
		return nil, err
	}
	var nest *ir.Nest
	var maxAcc int
	for _, op := range mod.Funcs[0].Ops {
		if n, ok := op.(*ir.Nest); ok {
			for _, si := range n.Statements() {
				if len(si.Stmt.Accesses) > maxAcc {
					maxAcc = len(si.Stmt.Accesses)
					nest = n
				}
			}
		}
	}
	if nest == nil {
		return nil, fmt.Errorf("dedup: no nest in %s", kernelName)
	}
	// Reuse-pair relations are quadratic in the iteration count; shrink
	// the domain so exhaustive pair counting stays tractable (the study
	// measures the structural effect of duplicate elimination, which is
	// size-independent).
	nest = shrinkNest(nest, 9)
	si := nest.Statements()[0]
	layout := interp.NewLayout(nest.Operands())
	const budget = 1 << 22

	run := func(dedup bool) (int, int64, time.Duration, error) {
		start := time.Now()
		u, nb, err := cachemodel.ReusePairUnion(si, layout.Base, 64, 64, dedup)
		if err != nil {
			return 0, 0, 0, err
		}
		n, err := cachemodel.CountReusePairs(u, budget)
		if err != nil {
			return 0, 0, 0, err
		}
		return nb, n, time.Since(start), nil
	}
	nbW, cntW, tW, err := run(true)
	if err != nil {
		return nil, err
	}
	nbWo, cntWo, tWo, err := run(false)
	if err != nil {
		return nil, err
	}
	sp := 1.0
	if tW > 0 {
		sp = float64(tWo) / float64(tW)
	}
	return &DedupResult{
		Kernel:          kernelName,
		BasicsWith:      nbW,
		BasicsWithout:   nbWo,
		TimeWith:        tW,
		TimeWithout:     tWo,
		Speedup:         sp,
		PairCountsEqual: cntW == cntWo,
	}, nil
}

// shrinkNest returns a copy of nest whose constant upper loop bounds are
// clamped so each loop runs at most max iterations. It builds the loops it
// clamps and shares the statements: the kernel's own nest is not written.
func shrinkNest(nest *ir.Nest, max int64) *ir.Nest {
	var shrink func(l *ir.Loop) *ir.Loop
	shrink = func(l *ir.Loop) *ir.Loop {
		out := &ir.Loop{IV: l.IV, Lo: l.Lo, Hi: slices.Clone(l.Hi), Parallel: l.Parallel,
			Body: slices.Clone(l.Body)}
		for i, b := range out.Hi {
			if b.Expr.IsConst() && b.Div == 1 && b.Expr.Const > max-1 {
				out.Hi[i] = ir.BExpr(ir.AffConst(max - 1))
			}
		}
		for i, nd := range out.Body {
			if sub, ok := nd.(*ir.Loop); ok {
				out.Body[i] = shrink(sub)
			}
		}
		return out
	}
	out := *nest
	out.Root = shrink(nest.Root)
	return &out
}

// RenderDedup prints the study over a few reuse-heavy kernels.
func (s *Suite) RenderDedup() error {
	s.printf("== fn. 17: reuse-pair duplicate elimination ==\n")
	s.printf("   %-10s basics(dedup/raw)  time(dedup/raw)  speedup  counts-equal\n", "kernel")
	total, n := 0.0, 0
	for _, name := range []string{"gemm", "2mm", "syrk", "mvt"} {
		r, err := s.Dedup(name)
		if err != nil {
			return err
		}
		s.printf("   %-10s %7d / %-7d  %8v / %-8v  %5.2fx  %v\n",
			r.Kernel, r.BasicsWith, r.BasicsWithout, r.TimeWith.Round(time.Microsecond),
			r.TimeWithout.Round(time.Microsecond), r.Speedup, r.PairCountsEqual)
		total += r.Speedup
		n++
	}
	s.printf("   mean speedup: %.2fx\n", total/float64(n))
	return nil
}
