package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
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
		def, err := CompilePipeline(context.Background(), buildModule(t, name, workloads.Test), cfg, PipelineOptions{})
		if err != nil {
			t.Fatalf("%s default: %v", name, err)
		}
		cfgP := cfg
		cfgP.Tiling = tiling.Spec{Name: tiling.NamePluto}
		exp, err := CompilePipeline(context.Background(), buildModule(t, name, workloads.Test), cfgP, PipelineOptions{})
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
// volume. On bicg at Bench size on BDW the two objectives disagree: the
// three concrete strategies tie on QDRAM, latency has the fewest misses
// (the volume rule auto once applied: least QDRAM, then fewest misses),
// and pluto the lowest searched EDP. auto must follow the EDP argmin.
func TestAutoSelectsByCapEDPNotDRAMVolume(t *testing.T) {
	const kernel = "bicg"
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0

	compile := func(name string) KernelReport {
		t.Helper()
		c := cfg
		c.Tiling = tiling.Spec{Name: name}
		res, err := CompilePipeline(context.Background(), buildModule(t, kernel, workloads.Bench), c, PipelineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Reports[0]
	}
	type volume struct{ q, miss int64 }
	var edpPick, volPick string
	bestEDP, bestVol := math.Inf(1), volume{math.MaxInt64, math.MaxInt64}
	for _, name := range []string{tiling.NamePluto, tiling.NameCacheOblivious, tiling.NameLatency} {
		rep := compile(name)
		if rep.Est.EDP < bestEDP {
			edpPick, bestEDP = name, rep.Est.EDP
		}
		vol := volume{q: rep.CM.QDRAM}
		for _, lv := range rep.CM.Levels {
			vol.miss += lv.Misses
		}
		if vol.q < bestVol.q || vol.q == bestVol.q && vol.miss < bestVol.miss {
			volPick, bestVol = name, vol
		}
	}
	if volPick == edpPick {
		t.Fatalf("no divergence on %s: %s has both the least DRAM volume and the lowest EDP", kernel, edpPick)
	}
	rep := compile(tiling.NameAuto)
	if rep.Tiling != tiling.NameAuto+":"+edpPick {
		t.Fatalf("auto picked %s, want the EDP argmin auto:%s (the volume argmin is %s)", rep.Tiling, edpPick, volPick)
	}
	if rep.Est.EDP > bestEDP*(1+1e-9) {
		t.Fatalf("auto's searched EDP %g exceeds the best concrete strategy's %g", rep.Est.EDP, bestEDP)
	}
}

// An unknown strategy name fails the compile before any nest is tiled,
// under Strict and BestEffort alike: it is a bad configuration, not a
// per-nest fault to degrade around.
func TestUnknownTilingStrategyFailsCompile(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	cfg.Tiling = tiling.Spec{Name: "bogus"}
	for _, policy := range []DegradePolicy{Strict, BestEffort} {
		cfg.Degrade = policy
		_, err := CompilePipeline(context.Background(), buildModule(t, "gemm", workloads.Test), cfg, PipelineOptions{})
		if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Fatalf("degrade %v: err = %v, want a compile error naming the strategy", policy, err)
		}
	}
}
