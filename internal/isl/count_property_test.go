package isl

import (
	"errors"
	"math/rand"
	"testing"
)

// TestCountOverflowFallsBack pins checked arithmetic in the counting
// recursion, in its rows and in its polynomials; in both, the enumeration
// fallback answers.
func TestCountOverflowFallsBack(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i", "j"})
	// Substituting j = i + 2^62 into -2j + i - 2^62 >= 0 moves the constant
	// to -3*2^62, past int64. Wrapped, the row reads i <= 2^62 and the set
	// counts 4 points; it has none.
	rows := Universe(sp)
	rows.AddRange(0, 0, 3)
	rows.AddEQ(sp.VarExpr(1).Sub(sp.VarExpr(0)).AddConst(-(1 << 62)))
	rows.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1).Scale(2)).AddConst(-(1 << 62)))
	// {(i, j) : M <= i <= M+2, 0 <= j <= i - M} with M = 2^40 has 6
	// points, but summing i - M + 1 over i squares M + 2, past int64.
	const m = 1 << 40
	body := Universe(sp)
	body.AddRange(0, m, m+2)
	body.AddGE(sp.VarExpr(1))
	body.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1)).AddConst(-m))
	for _, tc := range []struct {
		name string
		b    BasicSet
		want int64
	}{{"row", rows, 0}, {"polynomial", body, 6}} {
		if _, err := countSymbolic(tc.b); !errors.Is(err, ErrNotCountable) {
			t.Fatalf("%s: symbolic count err = %v, want ErrNotCountable", tc.name, err)
		}
		if got := mustCount(t, FromBasic(tc.b)); got != tc.want {
			t.Fatalf("%s: count = %d, want %d", tc.name, got, tc.want)
		}
	}
	// {0 <= i <= 2^32} x {0 <= j <= 2^32}: each block counts, but their
	// product (2^32+1)^2 is past int64. Wrapped, it reads 2^33+1. The whole
	// set goes to enumeration, which a small budget refuses.
	prod := Universe(sp)
	prod.AddRange(0, 0, 1<<32)
	prod.AddRange(1, 0, 1<<32)
	if _, err := countBlocks(prod, nil); !errors.Is(err, ErrNotCountable) {
		t.Fatalf("product: block count err = %v, want ErrNotCountable", err)
	}
	if n, err := FromBasic(prod).Count(1 << 10); !errors.Is(err, ErrEnumLimit) {
		t.Fatalf("product: count = %d, %v, want ErrEnumLimit from enumeration", n, err)
	}
}

// skewBlock adds to b, over vars i and j, the block {0 <= i <= 10,
// ceil(i/2) <= j <= floor((i+4)/3)}: non-unit coefficients on both sides
// of j that do not divide, so the block is outside the symbolically
// countable class. It has 10 points.
func skewBlock(b *BasicSet, i, j int) {
	x, y := b.Sp.VarExpr(i), b.Sp.VarExpr(j)
	b.AddGE(x)
	b.AddGE(x.Neg().AddConst(10))
	b.AddGE(y.Scale(2).Sub(x))
	b.AddGE(x.AddConst(4).Sub(y.Scale(3)))
}

// TestCountBlocks pins how a separable set's count is assembled from its
// blocks' counts: an empty block empties the set ahead of any other
// block's error and of an overflowing product, and a block outside the
// countable class sends the whole set, not the block, to enumeration.
func TestCountBlocks(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i", "j", "k"})
	// 1 <= 3k <= 2 has no integer k; i and j range up to 2^40, so the
	// product of the other two blocks alone would overflow.
	empty := Universe(sp)
	empty.AddRange(0, 0, 1<<40)
	empty.AddRange(1, 0, 1<<40)
	empty.AddGE(sp.VarExpr(2).Scale(3).AddConst(-1))
	empty.AddGE(sp.VarExpr(2).Scale(-3).AddConst(2))
	// The same empty block, now over j, beside the uncountable skew block
	// over (i, k).
	emptySkew := Universe(sp)
	skewBlock(&emptySkew, 0, 2)
	emptySkew.AddGE(sp.VarExpr(1).Scale(3).AddConst(-1))
	emptySkew.AddGE(sp.VarExpr(1).Scale(-3).AddConst(2))
	for name, b := range map[string]BasicSet{"overflow": empty, "uncountable": emptySkew} {
		if n, err := countBlocks(b, nil); n != 0 || err != nil {
			t.Fatalf("%s beside an empty block: %d, %v, want 0", name, n, err)
		}
		if n, err := FromBasic(b).Count(1); n != 0 || err != nil {
			t.Fatalf("%s beside an empty block: Count = %d, %v, want 0", name, n, err)
		}
	}

	// The skew block over (i, k) beside 0 <= j <= 5, which alone counts:
	// the whole set is enumerated, 10 x 6 points.
	skew := Universe(sp)
	skewBlock(&skew, 0, 2)
	skew.AddRange(1, 0, 5)
	if _, err := countBlocks(skew, nil); !errors.Is(err, ErrNotCountable) {
		t.Fatalf("skew: block count err = %v, want ErrNotCountable", err)
	}
	if got := mustCount(t, FromBasic(skew)); got != 60 {
		t.Fatalf("skew: count = %d, want 60", got)
	}
	// Below the whole set's 60 points the enumeration refuses, though
	// either block alone would fit the budget.
	if n, err := FromBasic(skew).Count(40); !errors.Is(err, ErrEnumLimit) {
		t.Fatalf("skew: count = %d, %v, want ErrEnumLimit", n, err)
	}
}

// TestCountMemoSharesBlocks: two tiled rectangles that differ in one
// dimension are different sets with a block in common; the memo counts
// that block once, and both counts are the enumerated ones.
func TestCountMemoSharesBlocks(t *testing.T) {
	sp := NewSetSpace(nil, []string{"it", "jt", "i", "j"})
	tiled := func(ni, nj int64) Set {
		b := Universe(sp)
		for d, n := range []int64{ni, nj} {
			tv, v := sp.VarExpr(d), sp.VarExpr(d+2)
			b.AddGE(v.Sub(tv.Scale(8)))
			b.AddGE(tv.Scale(8).AddConst(7).Sub(v))
			b.AddRange(d+2, 0, n-1)
		}
		return FromBasic(b)
	}
	var m CountMemo
	for _, s := range []Set{tiled(30, 20), tiled(30, 45)} {
		got, err := m.Count(s, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := s.CountEnumerate(1 << 16); got != want {
			t.Fatalf("%v: count %d, enumerated %d", s, got, want)
		}
	}
	if len(m.counts) != 2 || len(m.blocks) != 3 {
		t.Fatalf("memo holds %d sets and %d blocks, want 2 and 3", len(m.counts), len(m.blocks))
	}
}

// TestInstantiateParamsOverflow: a parameter value whose product with its
// coefficient leaves int64 is refused, not wrapped into a constant.
func TestInstantiateParamsOverflow(t *testing.T) {
	sp := NewSetSpace([]string{"N"}, []string{"i"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Scale(4).Sub(sp.VarExpr(0)))
	if _, err := FromBasic(b).InstantiateParams([]int64{1 << 62}); !errors.Is(err, ErrNotCountable) {
		t.Fatalf("err = %v, want ErrNotCountable", err)
	}
	s, err := FromBasic(b).InstantiateParams([]int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, s); got != 21 {
		t.Fatalf("count = %d, want 21", got)
	}
}

// randomDomain builds a small basic set over params and dims from rng:
// every dim gets a lower and an upper bound drawn from constants, the
// parameters and outer dims (the triangular and banded shapes of the
// kernels), and sometimes a second bound on either side or an equality
// with an outer dim. nonUnit reports the pair x_d = x_e + c1 and
// x_d + x_e = c2: substituting x_d leaves the non-unit equality
// 2*x_e = c2 - c1.
func randomDomain(rng *rand.Rand, params, dims int) (b BasicSet, nonUnit bool) {
	pnames := []string{"N", "M"}[:params]
	dnames := []string{"i", "j", "k"}[:dims]
	sp := NewSetSpace(pnames, dnames)
	b = Universe(sp)
	term := func(d int) LinExpr {
		e := sp.ConstExpr(int64(rng.Intn(7) - 2))
		switch {
		case params > 0 && rng.Intn(3) == 0:
			e = e.Add(sp.ParamExpr(rng.Intn(params)))
		case d > 0 && rng.Intn(2) == 0:
			e = e.Add(sp.VarExpr(rng.Intn(d)).Scale(int64(1 + rng.Intn(2))))
		}
		return e
	}
	for d := 0; d < dims; d++ {
		x := sp.VarExpr(d)
		b.AddGE(x.Sub(term(d)))
		b.AddGE(term(d).AddConst(int64(rng.Intn(6))).Sub(x))
		if params > 0 {
			b.AddGE(sp.ParamExpr(0).Sub(x)) // keeps every dim bounded by N
		}
		switch rng.Intn(6) {
		case 0:
			b.AddGE(x.Sub(term(d)))
		case 1:
			b.AddGE(term(d).AddConst(3).Sub(x))
		case 2:
			if d > 0 {
				e := sp.VarExpr(rng.Intn(d))
				b.AddEQ(x.Sub(e).AddConst(int64(rng.Intn(3) - 1)))
				if rng.Intn(2) == 0 {
					b.AddEQ(x.Add(e).AddConst(-int64(rng.Intn(8))))
					nonUnit = true
				}
			}
		}
	}
	return b, nonUnit
}

// TestSymbolicMatchesInstantiatedRandom: on random parametric domains the
// parametric count, evaluated, is the count of the instantiated set at
// every parameter value tried, and that count is the enumerated one. The
// parametric and numeric counts are one recursion with different leaves,
// so this also pins that chamber pruning and the non-unit equality case
// serve both.
func TestSymbolicMatchesInstantiatedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counted, nonUnit := 0, 0
	for iter := 0; iter < 400; iter++ {
		b, pair := randomDomain(rng, 1+rng.Intn(2), 1+rng.Intn(3))
		pieces, err := b.CountSymbolic()
		if errors.Is(err, ErrNotCountable) {
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		counted++
		if pair {
			nonUnit++
		}
		for _, n := range [][]int64{{0, 3}, {1, 0}, {2, 5}, {5, 2}, {9, 9}, {13, 4}} {
			params := n[:b.Sp.NumParams()]
			inst, err := FromBasic(b).InstantiateParams(params)
			if err != nil {
				t.Fatal(err)
			}
			want, err := inst.Count(1 << 20)
			if err != nil {
				t.Fatalf("%v at %v: %v", b, params, err)
			}
			enum, err := inst.CountEnumerate(1 << 20)
			if err != nil {
				t.Fatalf("%v at %v: %v", b, params, err)
			}
			if want != enum {
				t.Fatalf("%v at %v: Count %d, enumerated %d", b, params, want, enum)
			}
			if got, ok := EvalPieces(pieces, params); !ok || got != want {
				t.Fatalf("%v at %v: pieces give %d, %v, instantiated count %d", b, params, got, ok, want)
			}
		}
	}
	t.Logf("%d domains counted symbolically, %d through a non-unit equality", counted, nonUnit)
	if counted < 200 || nonUnit < 10 {
		t.Fatalf("only %d domains counted symbolically, %d through a non-unit equality", counted, nonUnit)
	}
}

// FuzzCountAgainstEnumeration turns fuzz bytes into a small basic set over
// one parameter, then checks Count of the instantiated set against
// enumeration, and the parametric count against the instantiated one. The
// first byte picks the shape: rows that may couple up to three dims, or a
// product of independent blocks (separableDomain).
func FuzzCountAgainstEnumeration(f *testing.F) {
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 9, 200, 17, 33, 4, 91, 12, 5, 77, 3})
	f.Add([]byte{0, 0, 1, 1, 3, 2, 0, 4, 1, 2, 3, 0})
	f.Add([]byte{0, 1, 0, 2, 5, 4, 3, 2, 1, 0, 3, 9, 1, 4, 0, 2, 2, 3, 1})
	f.Add([]byte{0, 2, 1, 0, 3, 1, 1, 1, 7, 0, 2, 6, 3, 1, 0, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(data) {
				return 0
			}
			v := int(data[pos]) % n
			pos++
			return v
		}
		var b BasicSet
		if next(2) == 0 {
			b = separableDomain(next)
		} else {
			b = coupledDomain(next)
		}
		pieces, symErr := b.CountSymbolic()
		for _, n := range []int64{0, 1, 4, 7} {
			inst, err := FromBasic(b).InstantiateParams([]int64{n})
			if err != nil {
				t.Fatal(err)
			}
			enum, err := inst.CountEnumerate(1 << 16)
			if err != nil {
				t.Fatalf("%v at N=%d: enumerate: %v", b, n, err)
			}
			got, err := inst.Count(1 << 16)
			if err != nil {
				t.Fatalf("%v at N=%d: %v", b, n, err)
			}
			if got != enum {
				t.Fatalf("%v at N=%d: Count %d, enumerated %d", b, n, got, enum)
			}
			if symErr == nil {
				if sym, ok := EvalPieces(pieces, []int64{n}); !ok || sym != enum {
					t.Fatalf("%v at N=%d: pieces give %d, %v, enumerated %d", b, n, sym, ok, enum)
				}
			}
		}
	})
}

// coupledDomain builds a set over N and up to three dims, each bounded to
// [-4, N + 4], plus up to five rows over all of them.
func coupledDomain(next func(int) int) BasicSet {
	dims := 1 + next(3)
	sp := NewSetSpace([]string{"N"}, []string{"i", "j", "k"}[:dims])
	b := Universe(sp)
	for d := 0; d < dims; d++ {
		// Bound every dim to [-4, N + 4] so enumeration stays small.
		b.AddGE(sp.VarExpr(d).AddConst(4))
		b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(d)).AddConst(4))
	}
	addRows(&b, next, next(6), []int{0, 1, 2}[:dims])
	return b
}

// separableDomain builds a set over N that is the product of independent
// blocks: a Pluto tile {(t, i) : T*t <= i <= T*t + T - 1, 0 <= i <= N}
// with T in 2..4, a block of one or two dims and sometimes a third block
// of one dim, each of their dims bounded to [-4, N + 4] and constrained by
// up to three rows of its own. The dims are laid out in an order drawn
// from the bytes, so blocks interleave as a tiled nest's do. At most
// 8 x 13^2 x 13 points at N <= 7, inside the enumeration budget.
func separableDomain(next func(int) int) BasicSet {
	widths := []int{2, 1 + next(2)}
	if next(2) == 0 {
		widths = append(widths, 1)
	}
	nd := 0
	for _, w := range widths {
		nd += w
	}
	// col[d] is the column of the block-ordered dim d.
	col := make([]int, nd)
	for d := range col {
		col[d] = d
	}
	for d := nd - 1; d > 0; d-- {
		e := next(d + 1)
		col[d], col[e] = col[e], col[d]
	}
	sp := NewSetSpace([]string{"N"}, []string{"a", "b", "c", "d", "e"}[:nd])
	b := Universe(sp)
	tile := int64(2 + next(3))
	tv, iv := sp.VarExpr(col[0]), sp.VarExpr(col[1])
	b.AddGE(iv.Sub(tv.Scale(tile)))
	b.AddGE(tv.Scale(tile).AddConst(tile - 1).Sub(iv))
	b.AddGE(iv)
	b.AddGE(sp.ParamExpr(0).Sub(iv))
	first := widths[0]
	for _, w := range widths[1:] {
		cols := col[first : first+w]
		for _, c := range cols {
			b.AddGE(sp.VarExpr(c).AddConst(4))
			b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(c)).AddConst(4))
		}
		addRows(&b, next, next(4), cols)
		first += w
	}
	return b
}

// addRows adds n random rows over the given dims of b (and N).
func addRows(b *BasicSet, next func(int) int, n int, cols []int) {
	sp := b.Sp
	for ; n > 0; n-- {
		e := sp.ConstExpr(int64(next(13) - 6))
		if next(2) == 0 {
			e = e.Add(sp.ParamExpr(0).Scale(int64(next(3) - 1)))
		}
		for _, c := range cols {
			e = e.Add(sp.VarExpr(c).Scale(int64(next(5) - 2)))
		}
		if next(4) == 0 {
			b.AddEQ(e)
		} else {
			b.AddGE(e)
		}
	}
}
