package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/workloads"
)

// Goroutines compiling one built module — the very value workloads hands
// every caller — through one stage cache, under mixed objectives and
// platforms, each get the result of the same compile run alone with the
// memo off. A stage that wrote a shared body, or a spine copy that missed
// something a stage writes, shows here as a race or a wrong result.
func TestGoroutinesCompileOneSharedModule(t *testing.T) {
	ctx := context.Background()
	targets := []*roofline.Target{targetFor(t, hw.BDW()), fileTarget(t, "2-socket-bdw.json")}
	objectives := []search.Objective{search.ObjectiveEDP, search.ObjectiveEnergy, search.ObjectivePerformance}
	for _, kernel := range []string{"2mm", "sdpa-bert"} {
		mod := buildModule(t, kernel, workloads.Test)
		if again := buildModule(t, kernel, workloads.Test); again != mod {
			t.Fatalf("%s: workloads built the module twice", kernel)
		}
		var cfgs []Config
		var want []*Result
		for _, tg := range targets {
			for _, obj := range objectives {
				cfg := DefaultConfig(tg)
				cfg.Search.Objective = obj
				res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				cfgs, want = append(cfgs, cfg), append(want, zeroTimings(res))
			}
		}
		for round := 0; round < 3; round++ {
			cache := &pipeline.Cache{}
			const workers = 4
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for j := range cfgs {
						i := (j + w) % len(cfgs) // each worker walks the configs from its own offset
						got, err := CompilePipeline(ctx, mod, cfgs[i], PipelineOptions{Stages: cache})
						if err == nil && !reflect.DeepEqual(zeroTimings(got), want[i]) {
							err = fmt.Errorf("config %d differs from its memo-off compile", i)
						}
						if err != nil {
							errs <- fmt.Errorf("%s round %d worker %d: %v", kernel, round, w, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
	}
}

// Every module workloads built keeps the content hash it was sealed with
// after every kernel at test and bench size has been compiled through a
// stage cache, cold and as a prefix run over the cached snapshots. A pass
// that writes into a shared module changes its text and fails here.
func TestSealedModulesKeepTheirHash(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	cache := &pipeline.Cache{}
	for _, size := range []workloads.SizeClass{workloads.Test, workloads.Bench} {
		for _, k := range workloads.All() {
			mod := buildModule(t, k.Name, size)
			for _, until := range []string{"", StageCharacterize} {
				if _, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache, Until: until}); err != nil {
					t.Fatalf("%s@%s: %v", k.Name, size, err)
				}
			}
		}
	}
	for _, size := range []workloads.SizeClass{workloads.Test, workloads.Bench} {
		for _, k := range workloads.All() {
			mod := buildModule(t, k.Name, size)
			if mod.ContentHash() != sha256.Sum256([]byte(mod.Print())) {
				t.Errorf("%s@%s: the module's text no longer matches the hash it was sealed with", k.Name, size)
			}
		}
	}
}

// A compile over a cached prefix installs a spine copy of the snapshot:
// its result shares every nest's loops with the cold compile that saved
// the snapshot, and owns every nest header. A deep clone on load fails the
// first check, a shared spine the second.
func TestStageReuseSharesSnapshotLoops(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	mod := buildModule(t, "sdpa-bert", workloads.Test)
	cache := &pipeline.Cache{}
	cold, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache, Until: StageCharacterize})
	if err != nil {
		t.Fatal(err)
	}
	reused, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reused.Timings.Stages[0].CacheHit {
		t.Fatal("the second compile did not reuse the cached prefix")
	}
	coldNests, reusedNests := nestsOf(cold.Module), nestsOf(reused.Module)
	if len(coldNests) == 0 || len(coldNests) != len(reusedNests) {
		t.Fatalf("nests: cold %d, reused %d", len(coldNests), len(reusedNests))
	}
	for i, n := range reusedNests {
		if n.Root != coldNests[i].Root {
			t.Fatalf("nest %s: the reused compile copied the snapshot's loops", n.Label)
		}
		if n == coldNests[i] {
			t.Fatalf("nest %s: the reused compile shares the cold compile's nest header", n.Label)
		}
	}
}

func nestsOf(mod *ir.Module) []*ir.Nest {
	var out []*ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				out = append(out, n)
			}
		}
	}
	return out
}
