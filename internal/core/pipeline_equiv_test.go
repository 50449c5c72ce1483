package core

import (
	"context"
	"reflect"
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

func buildModule(t testing.TB, name string, size workloads.SizeClass) *ir.Module {
	t.Helper()
	k, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(size)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// The memo-equivalence property: per-stage memoization on vs. off yields
// deep-equal Results (modulo wall-clock Timings), both on a cold cache
// and when every memoizable stage is served from a snapshot. The
// configurations cover everything a stage snapshot's per-nest records
// carry: tiling metadata, topology placement and per-socket cap vectors,
// and the torch cap-merge tail.
func TestStageMemoOnVsOffIdenticalResults(t *testing.T) {
	base := DefaultConfig(targetFor(t, hw.BDW()))
	base.AmortizeFactor = 0
	torch := base
	torch.CapLevel = ir.DialectTorch
	auto := base
	auto.Tiling = tiling.Spec{Name: tiling.NameAuto}
	twoSocket := DefaultConfig(twoSocketTarget(t, 0))
	twoSocket.AmortizeFactor = 0
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", base}, {"torch-caps", torch}, {"auto-tiling", auto},
		{"two-socket", twoSocket},
	} {
		for _, name := range []string{"gemm", "2mm", "sdpa-bert"} {
			mod := buildModule(t, name, workloads.Test)
			plain, err := CompilePipeline(context.Background(), mod, tc.cfg, PipelineOptions{})
			if err != nil {
				t.Fatalf("%s/%s plain: %v", tc.name, name, err)
			}
			cache := &pipeline.Cache{}
			cold, err := CompilePipeline(context.Background(), mod, tc.cfg, PipelineOptions{Stages: cache})
			if err != nil {
				t.Fatalf("%s/%s cold: %v", tc.name, name, err)
			}
			if !reflect.DeepEqual(zeroTimings(plain), zeroTimings(cold)) {
				t.Fatalf("%s/%s: memo-off vs cold-cache Results diverge", tc.name, name)
			}
			// A snapshot owns its module: scribbling over a Result built
			// from the cache must not leak into the next warm compile.
			for _, f := range cold.Module.Funcs {
				for _, op := range f.Ops {
					if n, ok := op.(*ir.Nest); ok {
						n.Label, n.Root = "scribbled", nil
					}
				}
			}
			for round := 0; round < 2; round++ {
				warm, err := CompilePipeline(context.Background(), mod, tc.cfg, PipelineOptions{Stages: cache})
				if err != nil {
					t.Fatalf("%s/%s warm: %v", tc.name, name, err)
				}
				hits := 0
				for _, s := range warm.Timings.Stages {
					if s.CacheHit {
						hits++
					}
				}
				if hits == 0 {
					t.Fatalf("%s/%s: warm run recorded no stage-cache hits", tc.name, name)
				}
				if !reflect.DeepEqual(zeroTimings(plain), zeroTimings(warm)) {
					t.Fatalf("%s/%s: memo-off vs warm-cache Results diverge (round %d)", tc.name, name, round)
				}
				warm.Module.Funcs[0].Ops = nil
			}
		}
	}
}

// A characterize prefix followed by a full compile on the same cache must
// not redo preprocess, tile or cachemodel.
func TestPrefixRunSeedsFullCompile(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	mod := buildModule(t, "gemm", workloads.Test)
	cache := &pipeline.Cache{}

	pre, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{
		Stages: cache, Until: StageCharacterize,
	})
	if err != nil {
		t.Fatalf("prefix: %v", err)
	}
	if pre.CapsInserted != 0 || len(pre.Reports) == 0 {
		t.Fatalf("prefix result: caps=%d reports=%d", pre.CapsInserted, len(pre.Reports))
	}
	for _, r := range pre.Reports {
		if r.OI <= 0 || r.CapGHz != 0 {
			t.Fatalf("prefix report not analysis-only: %+v", r)
		}
	}
	want := []string{StagePreprocess, StageDeps, StageTile, StageCacheModel, StageCacheEval, StageCharacterize}
	if got := len(pre.Timings.Stages); got != len(want) {
		t.Fatalf("prefix ran %d stages, want %d", got, len(want))
	}
	for i, name := range want {
		if pre.Timings.Stages[i].Stage != name {
			t.Fatalf("prefix stage %d = %s, want %s", i, pre.Timings.Stages[i].Stage, name)
		}
	}

	full, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	hit := map[string]bool{}
	for _, s := range full.Timings.Stages {
		if s.CacheHit {
			hit[s.Stage] = true
		}
	}
	for _, name := range want {
		if !hit[name] {
			t.Fatalf("full compile re-ran %s instead of hitting the prefix snapshot (hits: %v)", name, hit)
		}
	}
	// And the seeded full compile equals a from-scratch one.
	plain, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroTimings(plain), zeroTimings(full)) {
		t.Fatal("prefix-seeded full compile diverged from the direct one")
	}
}

// Configs differing only in what downstream stages read share the
// upstream snapshots: a search-objective change must still hit
// preprocess/tile/cachemodel.
func TestSearchConfigChangeKeepsPrefixSnapshots(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	mod := buildModule(t, "gemm", workloads.Test)
	cache := &pipeline.Cache{}
	if _, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Stages: cache}); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Search.Epsilon = cfg.Search.Epsilon * 10
	res, err := CompilePipeline(context.Background(), mod, cfg2, PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	for _, s := range res.Timings.Stages {
		hit[s.Stage] = s.CacheHit
	}
	for _, name := range []string{StagePreprocess, StageTile, StageCacheModel, StageCharacterize, StageModelFit} {
		if !hit[name] {
			t.Fatalf("stage %s missed after a search-only config change (hits: %v)", name, hit)
		}
	}
	if hit[StageSearch] {
		t.Fatal("search stage hit despite a changed epsilon")
	}
}

// Armed fault injection disables stage memoization: injection points are
// call-ordered state a replayed snapshot would skip.
func TestFaultsDisableStageMemo(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.AmortizeFactor = 0
	cfg.Degrade = BestEffort
	cfg.Faults = faults.New(1)
	cfg.Faults.Enable(FaultPluto, faults.Spec{On: []int64{1}})
	mod := buildModule(t, "gemm", workloads.Test)
	cache := &pipeline.Cache{}
	res, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reports[0].Degraded {
		t.Fatal("fault did not fire")
	}
	if n := cache.Counters().Len; n != 0 {
		t.Fatalf("stage cache holds %d snapshots from a fault-armed run, want 0", n)
	}
}

// Timings.Total must derive from the recorded stage events, covering
// every declared stage, so adding a stage can never silently
// under-report the Table-IV breakdown.
func TestTimingsTotalDerivesFromStageEvents(t *testing.T) {
	res := compileKernel(t, "gemm", workloads.Test, hw.BDW())
	var names []string
	for _, st := range compileStages(DefaultConfig(targetFor(t, hw.BDW()))) {
		names = append(names, st.Name)
	}
	if len(res.Timings.Stages) != len(names) {
		t.Fatalf("recorded %d stage events, want %d", len(res.Timings.Stages), len(names))
	}
	var sum int64
	for i, s := range res.Timings.Stages {
		if s.Stage != names[i] {
			t.Fatalf("stage %d = %s, want %s", i, s.Stage, names[i])
		}
		sum += int64(s.Duration)
	}
	if got := int64(res.Timings.Total()); got != sum {
		t.Fatalf("Total() = %d, want event sum %d", got, sum)
	}
	// Of over every declared stage partitions the same total, and a
	// Table-IV bucket is exactly its stage's event.
	if got := int64(res.Timings.Of(names...)); got != sum {
		t.Fatalf("Of(all stages) = %d, want event sum %d", got, sum)
	}
	if got := res.Timings.Of(StageCacheModel); got != res.Timings.Stages[3].Duration {
		t.Fatalf("Of(cachemodel) = %v, want the cachemodel event's %v", got, res.Timings.Stages[3].Duration)
	}
	// The four Table-IV columns partition the total too: dependence
	// analysis is Pluto's, the hierarchy evaluation PolyUFC-CM's, neither
	// drifts into steps 4-6.
	pre, pluto, cm, rest := res.Timings.Tab4()
	if pre+pluto+cm+rest != res.Timings.Total() {
		t.Fatalf("Tab4 columns sum to %v, want Total() %v", pre+pluto+cm+rest, res.Timings.Total())
	}
	if want := res.Timings.Stages[1].Duration + res.Timings.Stages[2].Duration; pluto != want {
		t.Fatalf("Tab4 pluto = %v, want deps + tile = %v", pluto, want)
	}
	if want := res.Timings.Stages[3].Duration + res.Timings.Stages[4].Duration; cm != want {
		t.Fatalf("Tab4 polyufc-cm = %v, want cachemodel + cache-eval = %v", cm, want)
	}
}
