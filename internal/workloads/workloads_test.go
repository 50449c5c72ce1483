package workloads

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/pluto"
)

func TestRegistryComplete(t *testing.T) {
	pb := PolyBench()
	if len(pb) < 22 {
		t.Fatalf("polybench kernels = %d, want >= 22 (paper Sec. VII-D)", len(pb))
	}
	ml := ML()
	if len(ml) != 7 {
		t.Fatalf("ml kernels = %d, want 7 (Tab. II)", len(ml))
	}
	for _, k := range All() {
		if k.PaperSize == "" {
			t.Fatalf("%s missing paper size", k.Name)
		}
		if k.Category == "" {
			t.Fatalf("%s missing category", k.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("gemm"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAllKernelsBuildAndLowerAtTestSize(t *testing.T) {
	for _, k := range All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			mod, err := k.BuildAffine(Test)
			if err != nil {
				t.Fatal(err)
			}
			nests := 0
			for _, f := range mod.Funcs {
				for _, op := range f.Ops {
					nest, ok := op.(*ir.Nest)
					if !ok {
						t.Fatalf("non-affine op %s after lowering", op.OpName())
					}
					nests++
					fl, err := nest.Flops()
					if err != nil {
						t.Fatalf("flops: %v", err)
					}
					if fl < 0 {
						t.Fatalf("negative flops")
					}
					tc, err := nest.TripCount()
					if err != nil || tc <= 0 {
						t.Fatalf("trip count %d (%v)", tc, err)
					}
				}
			}
			if nests == 0 {
				t.Fatal("no nests")
			}
		})
	}
}

func TestAllKernelsSurvivePluto(t *testing.T) {
	tiledCount := 0
	for _, k := range All() {
		mod, err := k.BuildAffine(Test)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		for _, f := range mod.Funcs {
			for _, op := range f.Ops {
				nest := op.(*ir.Nest)
				res, err := pluto.Optimize(nest, pluto.DefaultOptions())
				if err != nil {
					t.Fatalf("%s/%s: %v", k.Name, nest.Label, err)
				}
				if res.Tiled {
					tiledCount++
					// Trip counts must be preserved by tiling.
					orig, err1 := nest.TripCount()
					got, err2 := res.Nest.TripCount()
					if err1 != nil || err2 != nil || orig != got {
						t.Fatalf("%s/%s: tiling changed trip count %d -> %d (%v %v)",
							k.Name, nest.Label, orig, got, err1, err2)
					}
				}
			}
		}
	}
	if tiledCount < 10 {
		t.Fatalf("only %d nests tiled across the suite", tiledCount)
	}
}

func TestGemmDimensionsScale(t *testing.T) {
	modT, err := ByNameMust("gemm").Build(Test)
	if err != nil {
		t.Fatal(err)
	}
	modB, err := ByNameMust("gemm").Build(Bench)
	if err != nil {
		t.Fatal(err)
	}
	ft, _ := modT.Funcs[0].Ops[1].(*ir.Nest).Flops()
	fb, _ := modB.Funcs[0].Ops[1].(*ir.Nest).Flops()
	if fb <= ft {
		t.Fatal("bench size must exceed test size")
	}
}

// ByNameMust is a test helper.
func ByNameMust(name string) Kernel {
	k, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return k
}

func TestStencilNotTiledMatmulTiled(t *testing.T) {
	// jacobi-1d has (+,-) dependences: not rectangular-tilable.
	jac, err := ByNameMust("jacobi-1d").BuildAffine(Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pluto.Optimize(jac.Funcs[0].Ops[0].(*ir.Nest), pluto.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiled {
		t.Fatal("jacobi-1d time loop must not be rectangularly tiled")
	}
	// gemm update is tiled.
	g, err := ByNameMust("gemm").BuildAffine(Test)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pluto.Optimize(g.Funcs[0].Ops[1].(*ir.Nest), pluto.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Tiled {
		t.Fatal("gemm must be tiled")
	}
}

func TestSDPAStructure(t *testing.T) {
	mod, err := ByNameMust("sdpa-bert").Build(Bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Funcs[0].Ops) != 1 {
		t.Fatal("sdpa at torch level must be one op")
	}
	low, err := ByNameMust("sdpa-bert").BuildAffine(Bench)
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Funcs[0].Ops) != 9 {
		t.Fatalf("sdpa lowered to %d nests, want 9", len(low.Funcs[0].Ops))
	}
}

// ParseSize inverts String on every class, defaults the empty string to
// bench and refuses anything else.
func TestParseSize(t *testing.T) {
	for _, c := range []SizeClass{Test, Bench, Full} {
		if got, ok := ParseSize(c.String()); !ok || got != c {
			t.Errorf("ParseSize(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if got, ok := ParseSize(""); !ok || got != Bench {
		t.Errorf(`ParseSize("") = %v, %v; want bench`, got, ok)
	}
	if _, ok := ParseSize("huge"); ok {
		t.Error("ParseSize accepted an unknown class")
	}
}

// A registered kernel builds each size class once: every caller gets the
// same sealed module, and BuildAffine a spine of its own over it.
func TestBuildOnceSharesOneSealedModule(t *testing.T) {
	k := ByNameMust("sdpa-bert")
	a, err := k.Build(Test)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := k.Build(Test); b != a {
		t.Fatal("the module was built twice")
	}
	if c, _ := k.Build(Bench); c == a {
		t.Fatal("two size classes share a module")
	}
	text := a.Print()
	lowered, err := k.BuildAffine(Test)
	if err != nil {
		t.Fatal(err)
	}
	if lowered == a || lowered.Funcs[0] == a.Funcs[0] || a.Print() != text {
		t.Fatal("BuildAffine lowered the shared module")
	}
}

func TestBuildOnceKeepsAFailure(t *testing.T) {
	calls := 0
	build := buildOnce("broken", func(SizeClass) (*ir.Module, error) {
		calls++
		return nil, errors.New("no such shape")
	})
	for i := 0; i < 3; i++ {
		if mod, err := build(Bench); mod != nil || err == nil {
			t.Fatalf("call %d: (%v, %v), want the build error", i, mod, err)
		}
	}
	if calls != 1 {
		t.Fatalf("a failed build ran %d times, want 1", calls)
	}
}

// Callers racing for a size class that was never built get one build and
// one module between them.
func TestBuildOnceUnderConcurrentCallers(t *testing.T) {
	var calls atomic.Int32
	build := buildOnce("fresh", func(SizeClass) (*ir.Module, error) {
		calls.Add(1)
		mod, _ := ir.NewModule("fresh")
		return mod, nil
	})
	const callers = 8
	mods := make([]*ir.Module, callers)
	var wg sync.WaitGroup
	for i := range mods {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mods[i], _ = build(Test)
		}(i)
	}
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("%d builds, want 1", calls.Load())
	}
	for i, mod := range mods {
		if mod == nil || mod != mods[0] {
			t.Fatalf("caller %d got %p, caller 0 %p", i, mod, mods[0])
		}
	}
}
