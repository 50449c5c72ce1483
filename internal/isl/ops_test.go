package isl

import "testing"

func TestGistDropsImpliedConstraints(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i"})
	b := Universe(sp)
	b.AddRange(0, 0, 9) // 0 <= i <= 9
	ctx := Universe(sp)
	ctx.AddRange(0, 0, 100) // context already gives i >= 0 ... i <= 100
	g := b.Gist(ctx)
	// i >= 0 is implied by the context; i <= 9 is not.
	if g.NumConstraints() != 1 {
		t.Fatalf("gist kept %d constraints: %s", g.NumConstraints(), g)
	}
	// Within the context, the gisted set equals the original.
	inter1 := FromBasic(b).Intersect(FromBasic(ctx))
	inter2 := FromBasic(g).Intersect(FromBasic(ctx))
	eq, err := IsEqual(inter1, inter2, 1<<16)
	if err != nil || !eq {
		t.Fatalf("gist changed the set within context: %v %v", eq, err)
	}
}

func TestRemoveRedundancies(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i"})
	b := Universe(sp)
	b.AddRange(0, 0, 9)
	b.AddGE(sp.VarExpr(0).AddConst(5))           // i >= -5, implied by i >= 0
	b.AddGE(sp.ConstExpr(20).Sub(sp.VarExpr(0))) // i <= 20, implied by i <= 9
	r := b.RemoveRedundancies()
	if r.NumConstraints() != 2 {
		t.Fatalf("kept %d constraints: %s", r.NumConstraints(), r)
	}
	n1, _ := FromBasic(b).Count(1 << 16)
	n2, _ := FromBasic(r).Count(1 << 16)
	if n1 != n2 {
		t.Fatalf("simplification changed cardinality %d -> %d", n1, n2)
	}
}

func TestIsSubsetAndEqual(t *testing.T) {
	small := box([]string{"i", "j"}, []int64{2, 2}, []int64{5, 5})
	big := box([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9})
	if ok, err := IsSubset(small, big, 1<<16); err != nil || !ok {
		t.Fatalf("small ⊆ big: %v %v", ok, err)
	}
	if ok, err := IsSubset(big, small, 1<<16); err != nil || ok {
		t.Fatalf("big ⊆ small should be false: %v %v", ok, err)
	}
	if ok, err := IsEqual(small, small.Union(small), 1<<16); err != nil || !ok {
		t.Fatalf("A = A ∪ A: %v %v", ok, err)
	}
	if ok, err := IsEqual(small, big, 1<<16); err != nil || ok {
		t.Fatalf("small != big: %v %v", ok, err)
	}
}

func TestIsSubsetWithUnionCover(t *testing.T) {
	// [0,9] is covered by [0,4] ∪ [3,9].
	whole := box([]string{"i"}, []int64{0}, []int64{9})
	left := box([]string{"i"}, []int64{0}, []int64{4})
	right := box([]string{"i"}, []int64{3}, []int64{9})
	cover := left.Union(right)
	if ok, err := IsSubset(whole, cover, 1<<16); err != nil || !ok {
		t.Fatalf("cover test: %v %v", ok, err)
	}
	// Remove the overlap region's right part: gap appears.
	gap := box([]string{"i"}, []int64{5}, []int64{9})
	partial := left.Union(gap)
	if ok, err := IsEqual(whole, partial, 1<<16); err != nil || !ok {
		t.Fatalf("[0,4] ∪ [5,9] should equal [0,9]: %v %v", ok, err)
	}
}

func TestLexmaxPoint(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i", "j"})
	b := Universe(sp)
	b.AddRange(0, 3, 10)
	b.AddRange(1, -2, 5)
	b.AddGE(sp.ConstExpr(12).Sub(sp.VarExpr(0)).Sub(sp.VarExpr(1))) // i + j <= 12
	pt, ok, err := FromBasic(b).LexmaxPoint(1 << 16)
	if err != nil || !ok {
		t.Fatalf("lexmax failed: %v %v", ok, err)
	}
	if pt[0] != 10 || pt[1] != 2 {
		t.Fatalf("lexmax = %v, want [10 2]", pt)
	}
	// Lexmin and lexmax of a singleton coincide.
	s := box([]string{"i"}, []int64{7}, []int64{7})
	lo, _, _ := s.LexminPoint(1 << 10)
	hi, _, _ := s.LexmaxPoint(1 << 10)
	if lo[0] != 7 || hi[0] != 7 {
		t.Fatalf("singleton extrema %v %v", lo, hi)
	}
	// Empty set.
	e := box([]string{"i"}, []int64{5}, []int64{4})
	if _, ok, _ := e.LexmaxPoint(1 << 10); ok {
		t.Fatal("lexmax of empty set")
	}
}
