package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/workloads"
)

// purityKernels span the dialect stack: a plain PolyBench nest, a
// multi-nest torch program, and a conv pipeline.
var purityKernels = []string{"gemm", "mvt", "sdpa-bert", "conv2d-alexnet"}

// zeroTimings normalizes the only legitimately non-deterministic Result
// field (wall-clock stage durations) before deep comparison.
func zeroTimings(r *Result) *Result {
	r.Timings = Timings{}
	return r
}

// TestCompileDoesNotMutateInput is the memo-cache precondition: the input
// module must be byte-identical before and after Compile.
func TestCompileDoesNotMutateInput(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	for _, name := range purityKernels {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := k.Build(workloads.Test)
		if err != nil {
			t.Fatal(err)
		}
		before := mod.Clone()
		res, err := Compile(mod, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(mod, before) {
			t.Fatalf("%s: Compile mutated its input module", name)
		}
		if res.Module == mod {
			t.Fatalf("%s: Result.Module aliases the input module", name)
		}
	}
}

// TestCompilePureForFixedInput asserts the property the cache relies on:
// two Compile calls over the same module yield deep-equal Results.
func TestCompilePureForFixedInput(t *testing.T) {
	for _, p := range hw.Platforms() {
		cfg := DefaultConfig(targetFor(t, p))
		for _, name := range purityKernels {
			k, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := k.Build(workloads.Test)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := Compile(mod, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, p.Name, err)
			}
			r2, err := Compile(mod, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, p.Name, err)
			}
			if !reflect.DeepEqual(zeroTimings(r1), zeroTimings(r2)) {
				t.Fatalf("%s on %s: repeated Compile on the same module diverged", name, p.Name)
			}
		}
	}
}

// TestCompilePureAcrossClones: compiling two independent clones of one
// module matches compiling the module twice.
func TestCompilePureAcrossClones(t *testing.T) {
	p := hw.RPL()
	cfg := DefaultConfig(targetFor(t, p))
	k, err := workloads.ByName("2mm")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := mod.Clone(), mod.Clone()
	r1, err := Compile(c1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(c2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroTimings(r1), zeroTimings(r2)) {
		t.Fatal("Compile over independent clones diverged")
	}
}

// TestPhaseStudyDoesNotMutateInput covers the other pipeline entry point.
func TestPhaseStudyDoesNotMutateInput(t *testing.T) {
	p := hw.RPL()
	cfg := DefaultConfig(targetFor(t, p))
	k, err := workloads.ByName("sdpa-bert")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	before := mod.Clone()
	if _, err := PhaseStudy(mod, cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mod, before) {
		t.Fatal("PhaseStudy mutated its input module")
	}
}

// TestCacheResultsMatchFreshCompiles is the cache-correctness property:
// memoized Results are deep-equal to fresh compilations.
func TestCacheResultsMatchFreshCompiles(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	var cache Cache
	ctx := context.Background()
	for _, name := range purityKernels {
		k, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		build := func() (*ir.Module, error) { return k.Build(workloads.Test) }
		key := CacheKey{Kernel: name, Platform: p.Name, Size: int(workloads.Test), CapLevel: cfg.CapLevel}
		cached1, err := cache.CompileStaged(ctx, key, cfg, PipelineOptions{}, build)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cached2, err := cache.CompileStaged(ctx, key, cfg, PipelineOptions{}, build)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cached1 != cached2 {
			t.Fatalf("%s: second lookup did not hit the cache", name)
		}
		mod, err := build()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Compile(mod, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Compare against a private copy: the cached Result is shared.
		cachedCopy := *cached1
		if !reflect.DeepEqual(zeroTimings(&cachedCopy), zeroTimings(fresh)) {
			t.Fatalf("%s: cached Result differs from a fresh compile", name)
		}
	}
	hits, misses := cache.Stats()
	if misses != int64(len(purityKernels)) || hits != int64(len(purityKernels)) {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
}

// TestCacheKeyDistinguishesConfigs: associativity and platform changes
// must not collide.
func TestCacheKeyDistinguishesConfigs(t *testing.T) {
	var cache Cache
	ctx := context.Background()
	k, err := workloads.ByName("gemm-pow2")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*ir.Module, error) { return k.Build(workloads.Test) }
	p := hw.BDW()
	cfgSA := DefaultConfig(targetFor(t, p))
	cfgFA := cfgSA
	cfgFA.FullyAssoc = true
	keySA := CacheKey{Kernel: "gemm-pow2", Platform: p.Name, Size: int(workloads.Test), CapLevel: cfgSA.CapLevel}
	keyFA := keySA
	keyFA.FullyAssoc = true
	rSA, err := cache.CompileStaged(ctx, keySA, cfgSA, PipelineOptions{}, build)
	if err != nil {
		t.Fatal(err)
	}
	rFA, err := cache.CompileStaged(ctx, keyFA, cfgFA, PipelineOptions{}, build)
	if err != nil {
		t.Fatal(err)
	}
	if rSA == rFA {
		t.Fatal("distinct keys returned the same Result")
	}
	if n := cache.Counters().Len; n != 2 {
		t.Fatalf("len = %d", n)
	}
	cache.Reset()
	if cache.Counters().Len != 0 {
		t.Fatal("reset did not clear the cache")
	}
}

// TestCacheConcurrentSameKey: many goroutines requesting one key get the
// identical shared Result, built once.
func TestCacheConcurrentSameKey(t *testing.T) {
	p := hw.RPL()
	cfg := DefaultConfig(targetFor(t, p))
	k, err := workloads.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	var cache Cache
	key := CacheKey{Kernel: "mvt", Platform: p.Name, Size: int(workloads.Test), CapLevel: cfg.CapLevel}
	var builds sync.Map
	results := make([]*Result, 16)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := cache.CompileStaged(context.Background(), key, cfg, PipelineOptions{}, func() (*ir.Module, error) {
				builds.Store(g, true)
				return k.Build(workloads.Test)
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = r
		}(g)
	}
	wg.Wait()
	buildCount := 0
	builds.Range(func(_, _ any) bool { buildCount++; return true })
	if buildCount != 1 {
		t.Fatalf("build ran %d times, want 1", buildCount)
	}
	for g := 1; g < len(results); g++ {
		if results[g] != results[0] {
			t.Fatal("concurrent callers received different Results")
		}
	}
}

// TestCacheBuildErrorNotCached: a failing build propagates and is retried.
func TestCacheBuildErrorNotCached(t *testing.T) {
	var cache Cache
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	key := CacheKey{Kernel: "broken", Platform: p.Name}
	boom := errors.New("build failed")
	if _, err := cache.CompileStaged(context.Background(), key, cfg, PipelineOptions{}, func() (*ir.Module, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	k, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.CompileStaged(context.Background(), key, cfg, PipelineOptions{}, func() (*ir.Module, error) {
		return k.Build(workloads.Test)
	}); err != nil {
		t.Fatalf("retry after build error: %v", err)
	}
}
