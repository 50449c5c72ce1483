package pluto

import (
	"testing"

	"polyufc/internal/cachesim"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
)

func TestPermuteMatmulToIKJ(t *testing.T) {
	nest := matmulNest(32, 32, 32)
	permuted, perm, err := Permute(nest, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	permuted.WalkLoops(func(l *ir.Loop, _ int) { order = append(order, l.IV) })
	// The classic locality order: i outermost (row switch = full-line
	// cost on A and C), k middle (B row switch), j innermost (unit stride
	// on B and C, temporal on A).
	if order[2] != "j" {
		t.Fatalf("innermost = %s (order %v), want j", order[2], order)
	}
	if order[0] != "i" || order[1] != "k" {
		t.Fatalf("order = %v, want [i k j]", order)
	}
	if len(perm) != 3 {
		t.Fatalf("perm = %v", perm)
	}
	// Iteration space preserved.
	a, _ := nest.TripCount()
	b, _ := permuted.TripCount()
	if a != b {
		t.Fatalf("permutation changed trip count %d -> %d", a, b)
	}
}

func TestPermuteRespectsTriangularBounds(t *testing.T) {
	// j <= i: j must stay inside i regardless of cost.
	A := ir.NewArray("A", 8, 64, 64)
	st := &ir.Statement{Name: "S", Flops: 1}
	st.Accesses = []ir.Access{
		// Make i look cheap (stride 8) and j expensive (stride 512), so a
		// cost-only order would put j outermost — illegal here.
		{Array: A, Index: []ir.AffExpr{ir.AffVar("j"), ir.AffVar("i")}},
		{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("j"), ir.AffVar("i")}},
	}
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffVar("i"), st)
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), jl)
	nest := &ir.Nest{Label: "tri", Root: il}
	permuted, _, err := Permute(nest, nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	permuted.WalkLoops(func(l *ir.Loop, _ int) { order = append(order, l.IV) })
	if order[0] != "i" {
		t.Fatalf("bound dependence violated: order %v", order)
	}
	a, _ := nest.TripCount()
	b, _ := permuted.TripCount()
	if a != b {
		t.Fatalf("trip count changed %d -> %d", a, b)
	}
}

func TestPermuteReducesMisses(t *testing.T) {
	// For a kji-ordered matmul, interchange must reduce L1 misses
	// substantially on the simulator.
	A := ir.NewArray("A", 8, 64, 64)
	B := ir.NewArray("B", 8, 64, 64)
	C := ir.NewArray("C", 8, 64, 64)
	st := &ir.Statement{Name: "S", Flops: 2}
	i, j, k := ir.AffVar("i"), ir.AffVar("j"), ir.AffVar("k")
	st.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i, k}},
		{Array: B, Index: []ir.AffExpr{k, j}},
		{Array: C, Index: []ir.AffExpr{i, j}},
		{Array: C, Write: true, Index: []ir.AffExpr{i, j}},
	}
	// Deliberately bad order: k outer, j middle, i inner (column walks).
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), st)
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(63), il)
	kl := ir.SimpleLoop("k", ir.AffConst(0), ir.AffConst(63), jl)
	bad := &ir.Nest{Label: "kji", Root: kl}
	good, _, err := Permute(bad, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 16 << 10, LineSize: 64, Assoc: 8},
	}}
	miss := func(n *ir.Nest) int64 {
		s := mustSim(t, cfg)
		if _, err := interp.RunNest(n, interp.TracerFunc(func(a, sz int64, w bool) {
			s.Access(a, sz, w)
		})); err != nil {
			t.Fatal(err)
		}
		return s.LevelStats(0).Misses
	}
	mb, mg := miss(bad), miss(good)
	if mg*2 > mb {
		t.Fatalf("interchange did not halve misses: bad %d, permuted %d", mb, mg)
	}
}

func TestOptimizePermutesAndTiles(t *testing.T) {
	nest := matmulNest(64, 64, 64)
	res, err := Optimize(nest, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutation == nil {
		t.Fatal("no permutation recorded")
	}
	if !res.Tiled {
		t.Fatal("not tiled")
	}
	var order []string
	res.Nest.WalkLoops(func(l *ir.Loop, _ int) { order = append(order, l.IV) })
	want := []string{"t_i", "t_k", "t_j", "i", "k", "j"}
	for x := range want {
		if order[x] != want[x] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Parallelism must follow the permuted levels: i and j are parallel,
	// k is not; after ikj interchange levels 0 (i) and 2 (j) are parallel.
	if !res.Nest.Root.Parallel {
		t.Fatal("outermost tile loop (t_i) should be parallel")
	}
	a, _ := nest.TripCount()
	b, _ := res.Nest.TripCount()
	if a != b {
		t.Fatalf("pipeline changed trip count %d -> %d", a, b)
	}
}

// mustSim builds a cache simulator from a known-good config.
func mustSim(t *testing.T, cfg cachesim.Config) *cachesim.Simulator {
	t.Helper()
	s, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
