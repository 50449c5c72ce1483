// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact (see DESIGN.md's per-experiment
// index), plus the ablation benches DESIGN.md calls out. Problem sizes
// default to the Test class so `go test -bench=.` stays fast; set
// POLYUFC_BENCH_SIZE=bench (or full) to run evaluation shapes.
package polyufc_test

import (
	"context"
	"os"
	"sync"
	"testing"

	"polyufc/internal/cachemodel"
	"polyufc/internal/core"
	"polyufc/internal/experiments"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/model"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/workloads"
)

func benchSize() workloads.SizeClass {
	switch os.Getenv("POLYUFC_BENCH_SIZE") {
	case "bench":
		return workloads.Bench
	case "full":
		return workloads.Full
	}
	return workloads.Test
}

var (
	suiteOnce sync.Once
	suiteVal  *experiments.Suite
	suiteErr  error
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suiteVal, suiteErr = experiments.New(benchSize(), nil)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

// benchSuiteSweep renders the three kernel-sweep figures (Fig. 1, 6, 7) —
// the evaluation's hot path — on a dedicated suite.
func benchSuiteSweep(b *testing.B, concurrency int, keepCache bool) {
	b.Helper()
	s, err := experiments.New(benchSize(), nil)
	if err != nil {
		b.Fatal(err)
	}
	s.Concurrency = concurrency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !keepCache {
			s.ResetCache()
		}
		for _, id := range []string{"fig1", "fig6", "fig7"} {
			if err := s.Run(id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSuiteSerial is the cold baseline: one worker, and the stage
// and profile caches are dropped before every sweep, so each pass
// recompiles and re-simulates every kernel from scratch.
func BenchmarkSuiteSerial(b *testing.B) { benchSuiteSweep(b, 1, false) }

// BenchmarkSuiteParallel is the evaluation engine at steady state:
// GOMAXPROCS workers with the stage and profile caches kept warm across
// sweeps, as in repeated evaluation runs: every compile after the first
// pass is a chain of stage hits.
func BenchmarkSuiteParallel(b *testing.B) { benchSuiteSweep(b, 0, true) }

// BenchmarkSuiteParallelColdCache isolates the worker pool's contribution:
// GOMAXPROCS workers, but both caches are dropped every iteration as in
// the serial baseline.
func BenchmarkSuiteParallelColdCache(b *testing.B) { benchSuiteSweep(b, 0, false) }

// BenchmarkFig1UncoreSweep regenerates the Fig. 1 motivation sweeps:
// time/energy/EDP of conv2d, 2mm, gemver, mvt across the uncore range.
func BenchmarkFig1UncoreSweep(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms() {
			series, err := s.Fig1(p)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && p.Name == "BDW" {
				for _, sr := range series {
					b.ReportMetric(sr.BestEDP, sr.Kernel+"_bestEDP_GHz")
				}
			}
		}
	}
}

// BenchmarkFig5PhaseChanges regenerates the sdpa dialect phase study.
func BenchmarkFig5PhaseChanges(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		pat, err := s.Fig5Pattern()
		if err != nil {
			b.Fatal(err)
		}
		if pat == "" {
			b.Fatal("empty pattern")
		}
	}
}

// BenchmarkFig6Characterization regenerates the roofline characterization
// of the ML kernels on both platforms and reports agreement.
func BenchmarkFig6Characterization(b *testing.B) {
	s := suite(b)
	names := []string{"conv2d-convnext", "sdpa-bert", "lm-head-gpt2"}
	for i := 0; i < b.N; i++ {
		agree, total := 0, 0
		for _, p := range s.Platforms() {
			rows, err := s.Fig6(p, names)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rows {
				total++
				if r.Correct {
					agree++
				}
			}
		}
		if i == 0 {
			b.ReportMetric(float64(agree)/float64(total), "class_agreement")
		}
	}
}

// BenchmarkFig7EDPComparison regenerates the headline comparison against
// the UFS-driver baseline over a representative kernel set and reports the
// geomean EDP improvement.
func BenchmarkFig7EDPComparison(b *testing.B) {
	s := suite(b)
	names := []string{"gemm", "2mm", "mvt", "gemver", "atax", "jacobi-1d",
		"sdpa-bert", "lm-head-gpt2"}
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms() {
			rows, err := s.Fig7(p, names)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(100*experiments.GeomeanEDPGain(rows), p.Name+"_geomean_EDP_%")
			}
		}
	}
}

// BenchmarkFig8Associativity regenerates the set- vs fully-associative
// cache-model ablation (gemm on BDW, 2mm on RPL).
func BenchmarkFig8Associativity(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r1, err := s.Fig8("gemm-pow2", s.Platforms()[0])
		if err != nil {
			b.Fatal(err)
		}
		r2, err := s.Fig8("2mm-pow2", s.Platforms()[1])
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r1.BestSetAssoc, "gemm_BDW_setassoc_GHz")
			b.ReportMetric(r1.BestHW, "gemm_BDW_hw_GHz")
			b.ReportMetric(r2.BestSetAssoc, "2mm_RPL_setassoc_GHz")
			b.ReportMetric(r2.BestHW, "2mm_RPL_hw_GHz")
		}
	}
}

// BenchmarkTab1RooflineConstants regenerates the one-time roofline
// calibration of Table I.
func BenchmarkTab1RooflineConstants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range hw.Platforms() {
			c, err := roofline.Calibrate(hw.NewMachine(p))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(c.BtDRAM, p.Name+"_balance_FpB")
			}
		}
	}
}

// BenchmarkTab4CompileTime regenerates the Table-IV compile-time
// breakdown over a kernel subset.
func BenchmarkTab4CompileTime(b *testing.B) {
	s := suite(b)
	names := []string{"gemm", "2mm", "mvt", "conv2d-alexnet", "sdpa-bert"}
	for i := 0; i < b.N; i++ {
		rows, err := s.Tab4(names)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var cm float64
			for _, r := range rows {
				_, _, cmCol, _ := r.Timings.Tab4()
				cm += float64(cmCol.Milliseconds())
			}
			b.ReportMetric(cm, "total_cm_ms")
		}
	}
}

// BenchmarkCapSwitchOverhead regenerates the Sec. VII-F cap-switch
// overhead study on the multi-kernel sdpa (GEMMA2).
func BenchmarkCapSwitchOverhead(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms() {
			r, err := s.Overhead(p)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.Cumulative.Microseconds()), p.Name+"_overhead_us")
			}
		}
	}
}

// BenchmarkReuseDedup regenerates the footnote-17 duplicate-elimination
// study.
func BenchmarkReuseDedup(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Dedup("gemm")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Speedup, "dedup_speedup_x")
		}
	}
}

// BenchmarkCapGranularity is the Sec. VI-B ablation: caps applied at
// torch vs linalg vs affine granularity on sdpa.
func BenchmarkCapGranularity(b *testing.B) {
	s := suite(b)
	p := s.Platforms()[1]
	for i := 0; i < b.N; i++ {
		for _, lvl := range []ir.Dialect{ir.DialectTorch, ir.DialectLinalg, ir.DialectAffine} {
			k, err := workloads.ByName("sdpa-bert")
			if err != nil {
				b.Fatal(err)
			}
			mod, err := k.Build(benchSize())
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig(s.Target(p.Name))
			cfg.CapLevel = lvl
			cfg.AmortizeFactor = 0
			res, err := core.Compile(mod, cfg)
			if err != nil {
				b.Fatal(err)
			}
			caps := 0
			for _, op := range res.Module.Funcs[0].Ops {
				if _, ok := op.(*ir.SetUncoreCap); ok {
					caps++
				}
			}
			if i == 0 {
				b.ReportMetric(float64(caps), lvl.String()+"_caps")
			}
		}
	}
}

// BenchmarkEpsilonSweep is the Sec. VI-C ablation: sensitivity of the
// chosen cap to the search threshold epsilon.
func BenchmarkEpsilonSweep(b *testing.B) {
	s := suite(b)
	p := s.Platforms()[0]
	k, err := workloads.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, eps := range []float64{1e-4, 1e-3, 1e-2, 1e-1} {
			mod, err := k.Build(benchSize())
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig(s.Target(p.Name))
			cfg.Search = search.Options{Objective: search.ObjectiveEDP, Epsilon: eps}
			if _, err := core.Compile(mod, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModelVsSim is the analytic-vs-exact ablation: PolyUFC-CM miss
// counts against the trace-driven simulator on tiled matmul.
func BenchmarkModelVsSim(b *testing.B) {
	k, err := workloads.ByName("gemm")
	if err != nil {
		b.Fatal(err)
	}
	p := hw.BDW()
	for i := 0; i < b.N; i++ {
		mod, err := k.BuildAffine(benchSize())
		if err != nil {
			b.Fatal(err)
		}
		var ratio float64
		for _, op := range mod.Funcs[0].Ops {
			nest := op.(*ir.Nest)
			cm, err := cachemodel.Analyze(nest, p.Cache, cachemodel.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			prof, err := hw.ProfileNest(nest, p.Cache)
			if err != nil {
				b.Fatal(err)
			}
			if sim := prof.LLC().Misses; sim > 0 {
				ratio = float64(cm.LLC().Misses) / float64(sim)
			}
		}
		if i == 0 {
			b.ReportMetric(ratio, "model_vs_sim_LLC_miss_ratio")
		}
	}
}

// BenchmarkJointCoreUncore is the coordinated core+uncore extension study
// (Sec. VII-F discussion): extra EDP gain of joint selection over
// uncore-only capping.
func BenchmarkJointCoreUncore(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms() {
			rows, err := s.Joint(p, []string{"gemm", "mvt"})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, r := range rows {
					b.ReportMetric(100*r.JointExtraGain, p.Name+"_"+r.Kernel+"_extra_EDP_%")
				}
			}
		}
	}
}

// BenchmarkDUFSComparison is the static-vs-runtime uncore scaling study.
func BenchmarkDUFSComparison(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms() {
			rows, err := s.DUFSComparison(p, []string{"gemm", "mvt"})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, r := range rows {
					b.ReportMetric(100*r.PolyUFCvsDUFS, p.Name+"_"+r.Kernel+"_vs_dufs_%")
				}
			}
		}
	}
}

// BenchmarkSearch measures PolyUFC-SEARCH itself (microseconds per kernel
// decision).
func BenchmarkSearch(b *testing.B) {
	p := hw.RPL()
	c, err := roofline.Calibrate(hw.NewMachine(p))
	if err != nil {
		b.Fatal(err)
	}
	ks := model.KernelStats{
		Flops: 2e9, QBytes: 8e9, QDRAM: 64e6, QDRAMTime: 64e6, OI: 31,
		HitRatio:  []float64{0.95, 0.6, 0.5},
		MissRatio: []float64{0.05, 0.4, 0.5},
		Threads:   p.Threads,
	}
	m := model.New(c, ks)
	freqs := p.UncoreSteps()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := search.Run(context.Background(), m, freqs, search.DefaultOptions())
		if err != nil || res.BestGHz == 0 {
			b.Fatal("search failed")
		}
	}
}
