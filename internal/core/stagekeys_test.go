package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// resolved calibrates a backend description once per test binary.
func resolved(t testing.TB, b *platform.Backend) *roofline.Target {
	t.Helper()
	if tg, ok := testTargets[b.Name]; ok {
		return tg
	}
	tg, err := roofline.Resolve(b)
	if err != nil {
		t.Fatal(err)
	}
	testTargets[b.Name] = tg
	return tg
}

// fileTarget resolves a shipped platforms/*.json description (parsed, not
// registered: the registry is process-wide).
func fileTarget(t testing.TB, file string) *roofline.Target {
	t.Helper()
	data, err := os.ReadFile("../../platforms/" + file)
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return resolved(t, b)
}

// wideLineTarget is BDW with every cache level's line doubled to 128 bytes:
// the one machine parameter PolyUFC-CM's counting reads.
func wideLineTarget(t testing.TB) *roofline.Target {
	t.Helper()
	bdw, err := platform.Lookup("BDW")
	if err != nil {
		t.Fatal(err)
	}
	data, err := bdw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Parse(data) // a deep copy
	if err != nil {
		t.Fatal(err)
	}
	b.Name = "BDW-L128"
	for s := range b.Sockets {
		for l := range b.Sockets[s].Cache {
			b.Sockets[s].Cache[l].LineSize = 128
		}
	}
	return resolved(t, b)
}

// stageHits compiles mod under cfg through cache and returns which stages
// were served from a snapshot.
func stageHits(t *testing.T, mod *ir.Module, cfg Config, cache *pipeline.Cache) map[string]bool {
	t.Helper()
	res, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[string]bool{}
	for _, s := range res.Timings.Stages {
		hit[s.Stage] = s.CacheHit
	}
	return hit
}

// TestStageSharingTable is DESIGN.md §9's table as a test: a stage is keyed
// by what it reads, so after one compile a second one that changes a single
// input re-runs exactly the stages from the first reader of that input on.
// Mutation-checked (CHANGES.md, PR 23): platformSalt back in stageBaseKey,
// dropped from cache-eval's salt or from latency's tile salt, and the line
// size dropped from the counting stage's salt each fail a row.
func TestStageSharingTable(t *testing.T) {
	base := DefaultConfig(targetFor(t, hw.BDW()))
	base.AmortizeFactor = 0
	with := func(edit func(*Config)) Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	memoized := []string{StagePreprocess, StageDeps, StageTile, StageCacheModel, StageCacheEval,
		StageCharacterize, StageModelFit, StageSearch}
	latency := func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NameLatency} }
	auto := func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NameAuto} }
	rpl := func(c *Config) { c.Target = targetFor(t, hw.RPL()) }
	rows := []struct {
		name          string
		first, second Config
		hits          []string // the stages of second served from first's snapshots
	}{
		{"nothing changes", base, base, memoized},
		{"platform", base, with(rpl),
			[]string{StagePreprocess, StageDeps, StageTile, StageCacheModel}},
		{"platform, 2 sockets", base, with(func(c *Config) { c.Target = fileTarget(t, "2-socket-bdw.json") }),
			[]string{StagePreprocess, StageDeps, StageTile, StageCacheModel}},
		{"tile size", base, with(func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NamePluto, Size: 16} }),
			[]string{StagePreprocess, StageDeps}},
		{"platform under cacheoblivious",
			with(func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NameCacheOblivious} }),
			with(func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NameCacheOblivious}; rpl(c) }),
			[]string{StagePreprocess, StageDeps, StageTile, StageCacheModel}},
		{"platform under latency", with(latency), with(func(c *Config) { latency(c); rpl(c) }),
			[]string{StagePreprocess, StageDeps}},
		{"platform under auto", with(auto), with(func(c *Config) { auto(c); rpl(c) }),
			[]string{StagePreprocess, StageDeps}},
		{"search options under auto", with(auto), with(func(c *Config) { auto(c); c.Search.Epsilon *= 10 }),
			[]string{StagePreprocess, StageDeps}},
		{"line size", base, with(func(c *Config) { c.Target = wideLineTarget(t) }),
			[]string{StagePreprocess, StageDeps, StageTile}},
		{"cfg.FullyAssoc", base, with(func(c *Config) { c.FullyAssoc = true }),
			[]string{StagePreprocess, StageDeps, StageTile, StageCacheModel}},
		{"search options", base, with(func(c *Config) { c.Search.Epsilon *= 10 }),
			[]string{StagePreprocess, StageDeps, StageTile, StageCacheModel, StageCacheEval, StageCharacterize, StageModelFit}},
		{"degrade policy", base, with(func(c *Config) { c.Degrade = BestEffort }), nil},
	}
	mod := buildModule(t, "gemm", workloads.Test)
	for _, row := range rows {
		cache := &pipeline.Cache{}
		stageHits(t, mod, row.first, cache)
		got := stageHits(t, mod, row.second, cache)
		want := map[string]bool{}
		for _, s := range row.hits {
			want[s] = true
		}
		for _, s := range memoized {
			if got[s] != want[s] {
				t.Errorf("%s changes: stage %s cache hit = %v, want %v", row.name, s, got[s], want[s])
			}
		}
	}
}

// interleaveRequest is one compile of the interleaving-equivalence grid.
type interleaveRequest struct {
	kernel string
	cfg    Config
}

func (r interleaveRequest) String() string {
	return fmt.Sprintf("%s on %s, %s, %s, fully-assoc %t", r.kernel, r.cfg.Target.Platform.Name, r.cfg.Tiling.Fingerprint(), r.cfg.Degrade, r.cfg.FullyAssoc)
}

// TestInterleavedCompilesEqualMemoOff fences the re-keying from the
// outside: whatever order requests for kernels x platforms x tilings x
// policies x associativity models arrive in, and whether snapshots survive
// (limit 1024) or are evicted under them (limit 8), every compile through
// the shared stage cache is DeepEqual to the same compile with the memo
// off. A stage whose key leaves out something it reads serves another
// configuration's snapshot somewhere in the shuffle. Mutation-checked:
// platformSalt dropped from cache-eval's salt, from latency's tile salt,
// the line size dropped from the counting stage's salt, and FullyAssoc
// dropped from cache-eval's salt each fail it.
func TestInterleavedCompilesEqualMemoOff(t *testing.T) {
	// Plain and multi-nest PolyBench, a stencil, a nest outside pluto's
	// class (nussinov: nil deps), and two torch programs.
	kernels := []string{"gemm", "2mm", "nussinov", "mvt", "jacobi-2d", "lm-head-gpt2", "conv2d-alexnet"}
	if testing.Short() {
		kernels = kernels[:3]
	}
	targets := []*roofline.Target{
		targetFor(t, hw.BDW()), targetFor(t, hw.RPL()),
		fileTarget(t, "2-socket-bdw.json"), fileTarget(t, "wide-uncore.json"), wideLineTarget(t),
	}
	tilings := []tiling.Spec{
		{Name: tiling.NamePluto, Size: 8}, {Name: tiling.NamePluto, Size: 32},
		{Name: tiling.NameCacheOblivious}, {Name: tiling.NameLatency}, {Name: tiling.NameAuto},
	}
	var reqs []interleaveRequest
	for _, k := range kernels {
		for _, tg := range targets {
			for _, spec := range tilings {
				for _, policy := range []DegradePolicy{Strict, BestEffort} {
					for _, fa := range []bool{false, true} {
						cfg := DefaultConfig(tg)
						cfg.AmortizeFactor = 0
						cfg.Tiling, cfg.Degrade, cfg.FullyAssoc = spec, policy, fa
						reqs = append(reqs, interleaveRequest{k, cfg})
					}
				}
			}
		}
	}
	ctx := context.Background()
	mods := map[string]*ir.Module{}
	want := make([]*Result, len(reqs))
	for i, r := range reqs {
		if mods[r.kernel] == nil {
			mods[r.kernel] = buildModule(t, r.kernel, workloads.Test)
		}
		res, err := CompilePipeline(ctx, mods[r.kernel], r.cfg, PipelineOptions{})
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		want[i] = zeroTimings(res)
	}
	for _, limit := range []int{1024, 8} {
		cache := &pipeline.Cache{}
		cache.SetLimit(limit)
		hits := 0
		for _, i := range rand.New(rand.NewSource(int64(limit))).Perm(len(reqs)) {
			r := reqs[i]
			res, err := CompilePipeline(ctx, mods[r.kernel], r.cfg, PipelineOptions{Stages: cache})
			if err != nil {
				t.Fatalf("limit %d, %v: %v", limit, r, err)
			}
			for _, s := range res.Timings.Stages {
				if s.CacheHit {
					hits++
				}
			}
			if !reflect.DeepEqual(zeroTimings(res), want[i]) {
				t.Fatalf("limit %d, %v: the compile through the shared stage cache differs from the memo-off compile", limit, r)
			}
		}
		if hits == 0 {
			t.Fatalf("limit %d: no stage was ever served from the cache; the test compares nothing", limit)
		}
		if limit == 8 && cache.Counters().Evictions == 0 {
			t.Fatal("limit 8: nothing was evicted; the eviction paths did not run")
		}
	}
}

// Two goroutines compiling one kernel for two platforms through one cache
// meet in the singleflight on the shared prefix (preprocess, deps, tile,
// counting): one computes, the other loads the snapshot while the first is
// still working on the module it was cloned from. Run under -race (CI's
// `go test -race ./...`); both results must equal the memo-off compiles.
func TestConcurrentPlatformsShareOnePrefix(t *testing.T) {
	ctx := context.Background()
	cfgs := []Config{DefaultConfig(targetFor(t, hw.BDW())), DefaultConfig(targetFor(t, hw.RPL()))}
	for _, kernel := range []string{"2mm", "sdpa-bert"} {
		mod := buildModule(t, kernel, workloads.Test)
		var want [2]*Result
		for i, cfg := range cfgs {
			res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = zeroTimings(res)
		}
		for round := 0; round < 8; round++ {
			cache := &pipeline.Cache{}
			var got [2]*Result
			var errs [2]error
			var wg sync.WaitGroup
			for i := range cfgs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = CompilePipeline(ctx, mod, cfgs[i], PipelineOptions{Stages: cache})
				}(i)
			}
			wg.Wait()
			shared := 0
			for i := range cfgs {
				if errs[i] != nil {
					t.Fatalf("%s on %s: %v", kernel, cfgs[i].Target.Platform.Name, errs[i])
				}
				for _, s := range got[i].Timings.Stages {
					if s.CacheHit {
						shared++
					}
				}
				if !reflect.DeepEqual(zeroTimings(got[i]), want[i]) {
					t.Fatalf("%s on %s, round %d: concurrent compile differs from the memo-off compile", kernel, cfgs[i].Target.Platform.Name, round)
				}
			}
			if shared != 4 {
				t.Fatalf("%s round %d: %d stages shared across the two platforms, want 4 (preprocess, deps, tile, cachemodel)", kernel, round, shared)
			}
		}
	}
}

// BenchmarkCompileSweep is the in-process shape of the repo benchmark's
// cold-compile workload: every kernel at bench size x {BDW, RPL} x a tile
// ladder through one stage cache bounded like the daemon's, each (kernel,
// tile) visited on both platforms a block of 37 compiles apart — the
// traffic the paper's two-machine evaluation and any tile sweep generate.
// One op is one whole sweep from an empty cache; stagehits/op counts the
// stages served from snapshots (deterministic for a given stage keying).
func BenchmarkCompileSweep(b *testing.B) {
	targets := []*roofline.Target{targetFor(b, hw.BDW()), targetFor(b, hw.RPL())}
	var mods []*ir.Module
	for _, k := range workloads.All() {
		mods = append(mods, buildModule(b, k.Name, workloads.Bench))
	}
	ctx := context.Background()
	var hits int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cache := &pipeline.Cache{}
		cache.SetLimit(1024)
		for ti, size := range []int64{8, 16, 32, 64} {
			for block := 0; block < 2; block++ {
				cfg := DefaultConfig(targets[(ti+block)%2])
				cfg.Tiling = tiling.Spec{Name: tiling.NamePluto, Size: size}
				for _, mod := range mods {
					res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache})
					if err != nil {
						b.Fatal(err)
					}
					for _, s := range res.Timings.Stages {
						if s.CacheHit {
							hits++
						}
					}
				}
			}
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "stagehits/op")
}
