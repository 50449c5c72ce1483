package core

import (
	"context"
	"reflect"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/roofline"
	"polyufc/internal/workloads"
)

// scribble overwrites everything a compile could reach through a module.
func scribble(mod *ir.Module) {
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				n.Label, n.Root = "scribbled", nil
			}
		}
		f.Ops = nil
	}
}

// Every stage snapshot holds its own spine copy of the module
// (ir.Module.CopySpine: new funcs, op lists and nest headers over shared
// loop bodies), and a compile that loads one works on a further spine
// copy. The sharing of the bodies must stay invisible: scribbling on the
// spine of the module a compile worked on — the cold one that saved the
// snapshots, or a prefix run loaded from any one stage's snapshot —
// changes no stage's snapshot and no later compile's result.
// Mutation-checked: a snapSave that keeps the working module itself
// (mod := st.res.Module) fails here at the first prefix comparison, and a
// snapLoad that installs the snapshot's module (st.res.Module = snap.mod)
// after scribbling on the module loaded from the preprocess snapshot.
func TestSnapshotModuleSharingIsInvisible(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	cfg.AmortizeFactor = 0
	ctx := context.Background()
	for _, name := range []string{"2mm", "sdpa-bert"} {
		mod := buildModule(t, name, workloads.Test)
		plain, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var memoized []string
		for _, st := range compileStages(cfg) {
			if st.Memoizable() {
				memoized = append(memoized, st.Name)
			}
		}
		// What each prefix yields with the memo off.
		type prefix struct {
			module  string
			reports []KernelReport
		}
		want := map[string]prefix{}
		for _, stage := range memoized {
			res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Until: stage})
			if err != nil {
				t.Fatal(err)
			}
			want[stage] = prefix{res.Module.Print(), res.Reports}
		}
		// check re-reads every stage's snapshot and the full compile.
		cache := &pipeline.Cache{}
		check := func(after string) {
			t.Helper()
			for _, stage := range memoized {
				res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache, Until: stage})
				if err != nil {
					t.Fatalf("%s after scribbling on %s: prefix %s: %v", name, after, stage, err)
				}
				for _, s := range res.Timings.Stages {
					if !s.CacheHit {
						t.Fatalf("%s: prefix %s ran stage %s instead of loading its snapshot", name, stage, s.Stage)
					}
				}
				if got := res.Module.Print(); got != want[stage].module {
					t.Fatalf("%s after scribbling on %s: module of the %s snapshot changed:\n%s", name, after, stage, got)
				}
				if !reflect.DeepEqual(res.Reports, want[stage].reports) {
					t.Fatalf("%s after scribbling on %s: reports of the %s snapshot changed", name, after, stage)
				}
			}
			full, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(zeroTimings(plain), zeroTimings(full)) {
				t.Fatalf("%s after scribbling on %s: full compile diverges from the memo-off result", name, after)
			}
		}
		cold, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache})
		if err != nil {
			t.Fatal(err)
		}
		scribble(cold.Module)
		check("the cold compile's module")
		for _, stage := range memoized {
			res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache, Until: stage})
			if err != nil {
				t.Fatal(err)
			}
			scribble(res.Module)
			check("the module loaded from the " + stage + " snapshot")
		}
	}
}

// BenchmarkCompileSnapshots is one cold compile with the stage cache on:
// every memoizable stage runs and saves its snapshot, so B/op is what the
// snapshots cost on top of the compile (a module spine copy and a record
// slice per stage).
func BenchmarkCompileSnapshots(b *testing.B) {
	cfg := DefaultConfig(targetFor(b, hw.BDW()))
	cfg.AmortizeFactor = 0
	mod := buildModule(b, "sdpa-bert", workloads.Test)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: &pipeline.Cache{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileStageReuse is the in-process shape of the repo
// benchmark's stage-reuse workload: a full compile over a primed
// characterize prefix, each op with an epsilon no earlier op used, so the
// stages up to model-fit hit (model-fit after the first op) and search
// onward runs. The target comes from roofline.ResolveName, like the
// daemon's, so its key material is derived once. B/op and allocs/op are
// the whole compile: the cached prefix's lookups and snapshot load (one
// spine copy), then search and cap insertion. The compile is handed one
// prebuilt sealed module, so the kernel build and the base-key hash are
// not in it: internal/server's BenchmarkServeStageReuse covers those.
func BenchmarkCompileStageReuse(b *testing.B) {
	tg, err := roofline.ResolveName("bdw")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(tg)
	mod := buildModule(b, "gemm", workloads.Bench)
	ctx := context.Background()
	cache := &pipeline.Cache{}
	cache.SetLimit(1024)
	if _, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache, Until: StageCharacterize}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cfg.Search.Epsilon = 0.001 + float64(n)*1e-9
		if _, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{Stages: cache}); err != nil {
			b.Fatal(err)
		}
	}
}
