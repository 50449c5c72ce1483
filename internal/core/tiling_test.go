package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/cachemodel"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// The golden-equivalence guarantee of the strategy refactor: a zero-value
// Tiling spec and an explicit pluto spec are the same compilation,
// byte-identical Results included.
func TestDefaultTilingEqualsExplicitPluto(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	for _, name := range []string{"gemm", "2mm", "sdpa-bert"} {
		def, err := CompileCtx(context.Background(), buildModule(t, name, workloads.Test), cfg)
		if err != nil {
			t.Fatalf("%s default: %v", name, err)
		}
		cfgP := cfg
		cfgP.Tiling = tiling.Spec{Name: tiling.NamePluto}
		exp, err := CompileCtx(context.Background(), buildModule(t, name, workloads.Test), cfgP)
		if err != nil {
			t.Fatalf("%s explicit pluto: %v", name, err)
		}
		if !reflect.DeepEqual(zeroTimings(def), zeroTimings(exp)) {
			t.Fatalf("%s: zero-value Tiling diverged from explicit pluto", name)
		}
	}
}

// "" and "pluto" are the same artifact: a compile with the zero spec
// seeds the stage cache for an explicit-pluto compile (and vice versa).
func TestDefaultAndExplicitPlutoShareMemoEntries(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	cache := &pipeline.Cache{}
	mod := buildModule(t, "gemm", workloads.Test)
	if _, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Stages: cache}); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Tiling = tiling.Spec{Name: tiling.NamePluto}
	res, err := CompilePipeline(context.Background(), buildModule(t, "gemm", workloads.Test), cfg2,
		PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	for _, s := range res.Timings.Stages {
		hit[s.Stage] = s.CacheHit
	}
	for _, name := range []string{StagePreprocess, StageTile, StageCacheModel, StageCharacterize, StageModelFit, StageSearch} {
		if !hit[name] {
			t.Fatalf("stage %s re-ran under explicit pluto; want a snapshot hit (hits: %v)", name, hit)
		}
	}
}

// Distinct strategies must never share a tile-or-later snapshot: the
// tile-stage salt carries the strategy fingerprint, so every tile-or-later
// stage misses when only the strategy changes. preprocess and the
// dependence analysis, upstream of tiling, read neither and hit — that
// sharing is correct.
func TestDistinctStrategiesNeverShareMemoEntries(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	cache := &pipeline.Cache{}
	if _, err := CompilePipeline(context.Background(), buildModule(t, "gemm", workloads.Test), cfg,
		PipelineOptions{Stages: cache}); err != nil {
		t.Fatal(err)
	}
	specs := []tiling.Spec{
		{Name: tiling.NamePluto, Size: 64},
		{Name: tiling.NameCacheOblivious},
		{Name: tiling.NameLatency},
		{Name: tiling.NameAuto},
	}
	for _, spec := range specs {
		cfg2 := cfg
		cfg2.Tiling = spec
		res, err := CompilePipeline(context.Background(), buildModule(t, "gemm", workloads.Test), cfg2,
			PipelineOptions{Stages: cache})
		if err != nil {
			t.Fatalf("%s: %v", spec.Fingerprint(), err)
		}
		for _, s := range res.Timings.Stages {
			if upstream := s.Stage == StagePreprocess || s.Stage == StageDeps; s.CacheHit != upstream {
				t.Fatalf("%s: stage %s cache hit = %v, want %v (only the stages upstream of tiling are shared across strategies)",
					spec.Fingerprint(), s.Stage, s.CacheHit, upstream)
			}
		}
	}
}

// Every concrete strategy honors BestEffort the same way the legacy
// pluto path does: a poisoned nest falls back untiled but is still
// analyzed, characterized and capped, and only that nest degrades.
func TestBestEffortPerStrategyUntiledFallback(t *testing.T) {
	cases := []struct {
		spec  tiling.Spec
		point string
	}{
		{tiling.Spec{Name: tiling.NamePluto}, tiling.FaultPluto},
		{tiling.Spec{Name: tiling.NameCacheOblivious}, tiling.FaultCacheOblivious},
		{tiling.Spec{Name: tiling.NameLatency}, tiling.FaultLatency},
	}
	for _, tc := range cases {
		cfg, compile := buildKernel(t, "gemm")
		cfg.Tiling = tc.spec
		cfg.Degrade = BestEffort
		cfg.Faults = faults.New(1)
		cfg.Faults.Enable(tc.point, faults.Spec{On: []int64{2}})
		res := compile()
		if len(res.Reports) < 2 {
			t.Fatalf("%s: reports = %d", tc.spec.Name, len(res.Reports))
		}
		for i, r := range res.Reports {
			if i == 1 {
				if !r.Degraded || r.Tiled {
					t.Fatalf("%s: poisoned nest degraded=%v tiled=%v", tc.spec.Name, r.Degraded, r.Tiled)
				}
				if r.CM == nil || r.CapGHz <= 0 || r.SearchEvals == 0 {
					t.Fatalf("%s: untiled fallback not analyzed: %+v", tc.spec.Name, r)
				}
				if r.Err == nil || !strings.Contains(r.Err.Error(), StageTile+" on") {
					t.Fatalf("%s: recorded err = %v", tc.spec.Name, r.Err)
				}
				continue
			}
			if r.Degraded {
				t.Fatalf("%s: healthy nest %d degraded", tc.spec.Name, i)
			}
		}
	}
}

// auto must never select a candidate that errored. On mvt the healthy
// winner is cacheoblivious; with that candidate poisoned every call,
// auto still succeeds and picks someone else.
func TestAutoNeverSelectsErroredStrategy(t *testing.T) {
	cfg, compile := buildKernel(t, "mvt")
	cfg.Tiling = tiling.Spec{Name: tiling.NameAuto}
	healthy := compile()
	won := false
	for _, r := range healthy.Reports {
		if r.Tiling == "auto:"+tiling.NameCacheOblivious {
			won = true
		}
	}
	if !won {
		t.Fatalf("precondition: cacheoblivious never wins mvt on BDW; reports %+v", healthy.Reports)
	}

	cfg.Faults = faults.New(1)
	cfg.Faults.Enable(tiling.FaultCacheOblivious, faults.Spec{P: 1})
	res := compile() // Strict: auto absorbs the candidate failure
	for i, r := range res.Reports {
		if r.Degraded {
			t.Fatalf("report %d degraded; auto must absorb a single candidate failure", i)
		}
		if strings.HasPrefix(r.Tiling, "auto:") && r.Tiling == "auto:"+tiling.NameCacheOblivious {
			t.Fatalf("report %d selected the errored candidate: %s", i, r.Tiling)
		}
	}
}

// When every candidate fails, auto fails: Strict surfaces the combined
// error, BestEffort degrades each nest to its untiled form yet still
// caps it.
func TestAutoAllCandidatesFailed(t *testing.T) {
	cfg, compile := buildKernel(t, "gemm")
	cfg.Tiling = tiling.Spec{Name: tiling.NameAuto}
	cfg.Faults = faults.New(1)
	for _, pt := range []string{tiling.FaultPluto, tiling.FaultCacheOblivious, tiling.FaultLatency} {
		cfg.Faults.Enable(pt, faults.Spec{P: 1})
	}
	mod := buildModule(t, "gemm", workloads.Test)
	_, err := Compile(mod, *cfg)
	if err == nil || !strings.Contains(err.Error(), "all candidates failed") {
		t.Fatalf("strict err = %v", err)
	}

	cfg.Degrade = BestEffort
	cfg.Faults = faults.New(1)
	for _, pt := range []string{tiling.FaultPluto, tiling.FaultCacheOblivious, tiling.FaultLatency} {
		cfg.Faults.Enable(pt, faults.Spec{P: 1})
	}
	res := compile()
	for i, r := range res.Reports {
		if !r.Degraded || r.Tiled {
			t.Fatalf("report %d: degraded=%v tiled=%v; want untiled fallback", i, r.Degraded, r.Tiled)
		}
		if r.CM == nil || r.CapGHz <= 0 {
			t.Fatalf("report %d: fallback not capped: %+v", i, r)
		}
	}
}

// The divergence witness for auto's objective: candidates are ranked by
// the EDP of the cap PolyUFC-SEARCH selects, not by predicted DRAM
// volume. On bicg at Bench size on BDW the two objectives disagree —
// the volume rule prefers one strategy, the cap-EDP rule another — and
// the compile pipeline must follow the EDP argmin: auto's report names
// the EDP winner and matches the best searched EDP over the concrete
// strategies.
func TestAutoSelectsByCapEDPNotDRAMVolume(t *testing.T) {
	const kernel = "bicg"
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0

	// Unit level: replicate stageTile's context with a constant scorer
	// (every candidate ties, so the DRAM-volume tie-break decides) and
	// with the real one; the winners must differ (otherwise the fix is
	// untestable on this input and the witness kernel must change).
	mod := buildModule(t, kernel, workloads.Bench)
	var nest *ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok && nest == nil {
				nest = n
			}
		}
	}
	if nest == nil {
		t.Fatalf("%s has no nest", kernel)
	}
	auto := tiling.MustNew(tiling.Spec{Name: tiling.NameAuto})
	tctx := tiling.Context{Cache: cfg.Platform().Cache,
		CapEDP: func(*ir.Nest, *cachemodel.Result) (float64, bool) { return 0, true }}
	_, volInfo, err := auto.Apply(nest, tctx)
	if err != nil {
		t.Fatal(err)
	}
	tctx.CapEDP = capEDPScorer(context.Background(), cfg)
	_, edpInfo, err := auto.Apply(nest, tctx)
	if err != nil {
		t.Fatal(err)
	}
	if volInfo.Strategy == edpInfo.Strategy {
		t.Fatalf("no divergence on %s: volume and cap-EDP rules both pick %s", kernel, volInfo.Strategy)
	}

	// Pipeline level: a full auto compile follows the EDP winner, and
	// its searched EDP is the minimum over the concrete strategies.
	cfgAuto := cfg
	cfgAuto.Tiling = tiling.Spec{Name: tiling.NameAuto}
	resAuto, err := CompileCtx(context.Background(), buildModule(t, kernel, workloads.Bench), cfgAuto)
	if err != nil {
		t.Fatal(err)
	}
	rep := resAuto.Reports[0]
	if rep.Tiling != edpInfo.Strategy {
		t.Fatalf("pipeline picked %s, want the cap-EDP winner %s", rep.Tiling, edpInfo.Strategy)
	}
	best := math.Inf(1)
	for _, name := range []string{tiling.NamePluto, tiling.NameCacheOblivious, tiling.NameLatency} {
		cfgC := cfg
		cfgC.Tiling = tiling.Spec{Name: name}
		resC, err := CompileCtx(context.Background(), buildModule(t, kernel, workloads.Bench), cfgC)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if edp := resC.Reports[0].Est.EDP; edp < best {
			best = edp
		}
	}
	if rep.Est.EDP > best*(1+1e-9) {
		t.Fatalf("auto's searched EDP %g exceeds the best concrete strategy's %g", rep.Est.EDP, best)
	}
}
