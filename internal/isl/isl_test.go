package isl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// box builds {[dims] : lo_i <= dim_i <= hi_i}.
func box(dims []string, lo, hi []int64) Set {
	sp := NewSetSpace(nil, dims)
	b := Universe(sp)
	for i := range dims {
		b.AddRange(i, lo[i], hi[i])
	}
	return FromBasic(b)
}

func mustCount(t *testing.T, s Set) int64 {
	t.Helper()
	n, err := s.Count(1 << 22)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return n
}

func TestBoxCount(t *testing.T) {
	s := box([]string{"i", "j"}, []int64{0, 0}, []int64{9, 4})
	if got := mustCount(t, s); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
}

func TestEmptyBox(t *testing.T) {
	s := box([]string{"i"}, []int64{5}, []int64{4})
	if got := mustCount(t, s); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestTriangleCount(t *testing.T) {
	// {[i,j] : 0 <= i <= 9, 0 <= j <= i} has 55 points.
	sp := NewSetSpace(nil, []string{"i", "j"})
	b := Universe(sp)
	b.AddRange(0, 0, 9)
	b.AddGE(sp.VarExpr(1))                    // j >= 0
	b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1))) // i - j >= 0
	if got := mustCount(t, FromBasic(b)); got != 55 {
		t.Fatalf("count = %d, want 55", got)
	}
}

func TestTiledDomainCount(t *testing.T) {
	// Tiled loop: {[t,i] : 0 <= i <= N-1, 32t <= i <= 32t+31, t >= 0},
	// which must have exactly N points for any N.
	for _, n := range []int64{1, 31, 32, 33, 100, 1000, 1024} {
		sp := NewSetSpace(nil, []string{"t", "i"})
		b := Universe(sp)
		ti, ii := 0, 1
		b.AddGE(sp.VarExpr(ti))                                            // t >= 0
		b.AddGE(sp.VarExpr(ii))                                            // i >= 0
		b.AddGE(sp.ConstExpr(n - 1).Sub(sp.VarExpr(ii)))                   // i <= N-1
		b.AddGE(sp.VarExpr(ii).Sub(sp.VarExpr(ti).Scale(32)))              // i >= 32t
		b.AddGE(sp.VarExpr(ti).Scale(32).AddConst(31).Sub(sp.VarExpr(ii))) // i <= 32t+31
		if got := mustCount(t, FromBasic(b)); got != n {
			t.Fatalf("N=%d: count = %d, want %d", n, got, n)
		}
	}
}

func TestTiled2DMatchesEnumeration(t *testing.T) {
	// 2-D tiled domain, symbolic count vs exhaustive enumeration.
	n := int64(50)
	sp := NewSetSpace(nil, []string{"ti", "tj", "i", "j"})
	b := Universe(sp)
	for _, d := range []struct{ t, v int }{{0, 2}, {1, 3}} {
		b.AddGE(sp.VarExpr(d.t))
		b.AddGE(sp.VarExpr(d.v))
		b.AddGE(sp.ConstExpr(n - 1).Sub(sp.VarExpr(d.v)))
		b.AddGE(sp.VarExpr(d.v).Sub(sp.VarExpr(d.t).Scale(8)))
		b.AddGE(sp.VarExpr(d.t).Scale(8).AddConst(7).Sub(sp.VarExpr(d.v)))
	}
	s := FromBasic(b)
	sym := mustCount(t, s)
	enum, err := s.CountEnumerate(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if sym != enum || sym != n*n {
		t.Fatalf("symbolic = %d, enum = %d, want %d", sym, enum, n*n)
	}
}

func TestParamInstantiation(t *testing.T) {
	// {[i] : 0 <= i < N} with N = 17.
	sp := NewSetSpace([]string{"N"}, []string{"i"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	s, err := FromBasic(b).InstantiateParams([]int64{17})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCount(t, s); got != 17 {
		t.Fatalf("count = %d, want 17", got)
	}
}

func TestUnionCountDisjointified(t *testing.T) {
	a := box([]string{"i"}, []int64{0}, []int64{9})
	c := box([]string{"i"}, []int64{5}, []int64{14})
	u := a.Union(c)
	if got := mustCount(t, u); got != 15 {
		t.Fatalf("union count = %d, want 15 (overlap must not double count)", got)
	}
}

func TestSubtract(t *testing.T) {
	a := box([]string{"i"}, []int64{0}, []int64{9})
	c := box([]string{"i"}, []int64{3}, []int64{5})
	d, exact := a.Subtract(c)
	if !exact {
		t.Fatal("subtract should be exact")
	}
	if got := mustCount(t, d); got != 7 {
		t.Fatalf("difference count = %d, want 7", got)
	}
	for i := int64(0); i <= 9; i++ {
		want := i < 3 || i > 5
		if got := d.EvalPoint(nil, []int64{i}); got != want {
			t.Fatalf("point %d: got %v, want %v", i, got, want)
		}
	}
}

// subsetOf reports a ⊆ b as "a \ b has no point", through the exact
// Subtract the counting disjointifies unions with.
func subsetOf(t *testing.T, a, b Set) bool {
	t.Helper()
	diff, exact := a.Subtract(b)
	if !exact {
		t.Fatalf("inexact subtraction of %s", b)
	}
	n, err := diff.CountEnumerate(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	return n == 0
}

func TestIsSubsetAndEqual(t *testing.T) {
	small := box([]string{"i", "j"}, []int64{2, 2}, []int64{5, 5})
	big := box([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9})
	if !subsetOf(t, small, big) {
		t.Fatal("small ⊆ big")
	}
	if subsetOf(t, big, small) {
		t.Fatal("big ⊆ small should be false")
	}
	if both := small.Union(small); !subsetOf(t, small, both) || !subsetOf(t, both, small) {
		t.Fatal("A = A ∪ A")
	}
}

func TestIsSubsetWithUnionCover(t *testing.T) {
	// [0,9] is covered by [0,4] ∪ [3,9].
	whole := box([]string{"i"}, []int64{0}, []int64{9})
	left := box([]string{"i"}, []int64{0}, []int64{4})
	right := box([]string{"i"}, []int64{3}, []int64{9})
	if !subsetOf(t, whole, left.Union(right)) {
		t.Fatal("[0,4] ∪ [3,9] should cover [0,9]")
	}
	// Without the overlap the two halves still tile the whole.
	partial := left.Union(box([]string{"i"}, []int64{5}, []int64{9}))
	if !subsetOf(t, whole, partial) || !subsetOf(t, partial, whole) {
		t.Fatal("[0,4] ∪ [5,9] should equal [0,9]")
	}
	// A gap is found.
	if subsetOf(t, whole, left.Union(box([]string{"i"}, []int64{6}, []int64{9}))) {
		t.Fatal("[0,4] ∪ [6,9] should miss 5")
	}
}

func TestIntersect(t *testing.T) {
	a := box([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9})
	c := box([]string{"i", "j"}, []int64{5, -3}, []int64{14, 4})
	x := a.Intersect(c)
	if got := mustCount(t, x); got != 5*5 {
		t.Fatalf("intersection count = %d, want 25", got)
	}
}

func TestExistentialFloorMod(t *testing.T) {
	// {[i, line] : 0 <= i < 64, line = floor(i/16)} via an equality with the
	// existential-free encoding 16*line <= i <= 16*line + 15.
	sp := NewSetSpace(nil, []string{"i", "line"})
	b := Universe(sp)
	b.AddRange(0, 0, 63)
	b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1).Scale(16)))              // i - 16*line >= 0
	b.AddGE(sp.VarExpr(1).Scale(16).AddConst(15).Sub(sp.VarExpr(0))) // 16*line + 15 - i >= 0
	s := FromBasic(b)
	if got := mustCount(t, s); got != 64 {
		t.Fatalf("count = %d, want 64 (line is a function of i)", got)
	}
	// Projecting onto line should give 4 distinct values.
	proj, _ := s.ProjectOutVar(0)
	n, err := proj.CountEnumerate(1000)
	if err != nil || n != 4 {
		t.Fatalf("distinct lines = %d (%v), want 4", n, err)
	}
}

func TestExistsViaAddExists(t *testing.T) {
	// {[i] : 0 <= i < 32, exists q: i = 4q}  -> multiples of 4 -> 8 points.
	sp := NewSetSpace(nil, []string{"i"})
	b := Universe(sp)
	b.AddRange(0, 0, 31)
	q := b.AddExists(1)
	row := make([]int64, b.totalCols())
	row[0] = 1
	row[q] = -4
	b.AddRawEQ(row, 0) // i - 4q == 0
	s := FromBasic(b)
	n, err := s.CountEnumerate(1000)
	if err != nil || n != 8 {
		t.Fatalf("count = %d (%v), want 8", n, err)
	}
	// 40 = 4*10 has its witness but is outside the range: EvalPoint is
	// handed the point, so it checks the rows over i itself.
	if !s.EvalPoint(nil, []int64{8}) || s.EvalPoint(nil, []int64{9}) || s.EvalPoint(nil, []int64{40}) {
		t.Fatal("EvalPoint existential search wrong")
	}
}

func TestIdentityAndLexMaps(t *testing.T) {
	lt := LexLTMap(nil, []string{"i", "j"}, []string{"i'", "j'"})
	cases := []struct {
		a, b [2]int64
		want bool
	}{
		{[2]int64{1, 5}, [2]int64{2, 0}, true},
		{[2]int64{1, 5}, [2]int64{1, 6}, true},
		{[2]int64{1, 5}, [2]int64{1, 5}, false},
		{[2]int64{2, 0}, [2]int64{1, 9}, false},
	}
	for _, c := range cases {
		got := lt.EvalPoint(nil, []int64{c.a[0], c.a[1], c.b[0], c.b[1]})
		if got != c.want {
			t.Fatalf("lexlt %v -> %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// The order is total: outside lexlt both ways lies exactly the identity.
	for a := int64(0); a < 3; a++ {
		for b := int64(0); b < 3; b++ {
			x, y := []int64{1, a}, []int64{1, b}
			fwd := lt.EvalPoint(nil, append(append([]int64(nil), x...), y...))
			bwd := lt.EvalPoint(nil, append(append([]int64(nil), y...), x...))
			related, want := 0, 1
			if fwd {
				related++
			}
			if bwd {
				related++
			}
			if a == b {
				want = 0
			}
			if related != want {
				t.Fatalf("lexlt %v vs %v: forward %v, backward %v", x, y, fwd, bwd)
			}
		}
	}
}

func TestMapFromExprsAndApply(t *testing.T) {
	// The graph of f(i, j) = (i + j, 2i), applied to a 3x3 box.
	in := []string{"i", "j"}
	sp := NewMapSpace(nil, in, []string{"a", "b"})
	g := Universe(sp)
	g.AddEquals(sp.VarExpr(2), sp.VarExpr(0).Add(sp.VarExpr(1)))
	g.AddEquals(sp.VarExpr(3), sp.VarExpr(0).Scale(2))
	m := FromBasic(g)
	if !m.EvalPoint(nil, []int64{1, 2, 3, 2}) {
		t.Fatal("map graph point missing")
	}
	if m.EvalPoint(nil, []int64{1, 2, 3, 3}) {
		t.Fatal("map graph has wrong point")
	}
	dom := box(in, []int64{0, 0}, []int64{2, 2})
	img := m.Apply(dom)
	// Image points (i+j, 2i) for i,j in 0..2: 2i in {0,2,4}, i+j in i..i+2.
	n, err := img.CountEnumerate(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Fatalf("image size = %d, want 9", n)
	}
	if !img.EvalPoint(nil, []int64{4, 4}) { // i=2, j=2
		t.Fatal("image missing (4,4)")
	}
}

func TestInverseDomainRange(t *testing.T) {
	in := []string{"i"}
	sp := NewMapSpace(nil, in, []string{"o"})
	g := Universe(sp)
	g.AddEquals(sp.VarExpr(1), sp.VarExpr(0).Scale(3).AddConst(1))
	dom := box(in, []int64{0}, []int64{4})
	m := FromBasic(g).IntersectDomain(dom)
	rng := m.Range()
	n, _ := rng.CountEnumerate(1000)
	if n != 5 {
		t.Fatalf("range size = %d, want 5", n)
	}
	if !rng.EvalPoint(nil, []int64{13}) || rng.EvalPoint(nil, []int64{12}) {
		t.Fatal("range membership wrong")
	}
	inv := m.Inverse()
	if !inv.EvalPoint(nil, []int64{13, 4}) {
		t.Fatal("inverse membership wrong")
	}
	d := inv.Domain()
	nd, _ := d.CountEnumerate(1000)
	if nd != 5 {
		t.Fatalf("inverse domain size = %d, want 5", nd)
	}
}

func TestChain(t *testing.T) {
	// f(i) = i+1 over 0..9, g(x) = 2x; chain = 2(i+1).
	fsp := NewMapSpace(nil, []string{"i"}, []string{"x"})
	f := Universe(fsp)
	f.AddEquals(fsp.VarExpr(1), fsp.VarExpr(0).AddConst(1))
	gsp := NewMapSpace(nil, []string{"x"}, []string{"y"})
	g := Universe(gsp)
	g.AddEquals(gsp.VarExpr(1), gsp.VarExpr(0).Scale(2))
	h := FromBasic(f).Chain(FromBasic(g))
	if !h.EvalPoint(nil, []int64{3, 8}) || h.EvalPoint(nil, []int64{3, 7}) {
		t.Fatal("chain composition wrong")
	}
}

func TestProjectOutVarExactness(t *testing.T) {
	// Projecting j out of {[i,j] : j = 2i, 0 <= j <= 10} gives 0 <= i <= 5.
	sp := NewSetSpace(nil, []string{"i", "j"})
	b := Universe(sp)
	b.AddEquals(sp.VarExpr(1), sp.VarExpr(0).Scale(2))
	b.AddRange(1, 0, 10)
	p, exact := FromBasic(b).ProjectOutVar(1)
	if !exact {
		t.Fatal("unit-coefficient equality projection should be exact")
	}
	n, _ := p.CountEnumerate(1000)
	if n != 6 {
		t.Fatalf("projected count = %d, want 6", n)
	}
}

func TestIsEmptyRationalSoundness(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0).AddConst(-10))     // i >= 10
	b.AddGE(sp.VarExpr(0).Neg().AddConst(5)) // i <= 5
	if !b.IsEmptyRational() {
		t.Fatal("clearly empty set not detected")
	}
}

func TestCoalesceDedup(t *testing.T) {
	a := box([]string{"i"}, []int64{0}, []int64{9})
	u := a.Union(a).Union(a)
	if u.NumBasics() != 3 {
		t.Fatalf("pre-coalesce basics = %d", u.NumBasics())
	}
	c := u.Coalesce()
	if c.NumBasics() != 1 {
		t.Fatalf("post-coalesce basics = %d, want 1", c.NumBasics())
	}
	if got := mustCount(t, c); got != 10 {
		t.Fatalf("count = %d", got)
	}
}

// TestCanonicalKeyAndCountMemo pins what the count memo relies on: the key
// ignores the order of constraints and of basic sets and repeated basic
// sets, and tells apart everything else.
func TestCanonicalKeyAndCountMemo(t *testing.T) {
	key := func(s Set) string {
		_, k := s.coalesce(nil)
		return string(k)
	}
	sp := NewSetSpace(nil, []string{"i", "j"})
	tri := func(order []int, n int64) Set {
		b := Universe(sp)
		adds := []func(){
			func() { b.AddGE(sp.VarExpr(0)) },
			func() { b.AddGE(sp.ConstExpr(n).Sub(sp.VarExpr(0))) },
			func() { b.AddGE(sp.VarExpr(1)) },
			func() { b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1))) },
		}
		for _, i := range order {
			adds[i]()
		}
		return FromBasic(b)
	}
	a, b := tri([]int{0, 1, 2, 3}, 9), tri([]int{3, 1, 0, 2}, 9)
	other := box([]string{"i", "j"}, []int64{0, 0}, []int64{9, 9})
	if key(a) != key(b) {
		t.Error("constraint order changed the key")
	}
	if key(a.Union(other)) != key(other.Union(b).Union(a)) {
		t.Error("basic-set order or a repeated basic set changed the key")
	}
	distinct := []Set{a, tri([]int{0, 1, 2, 3}, 10), other, a.Union(other),
		box([]string{"i", "j"}, []int64{0, 0}, []int64{9, -9}),
		box([]string{"i"}, []int64{0}, []int64{9}), box([]string{"i"}, []int64{0}, []int64{64})}
	seen := map[string]int{}
	for i, s := range distinct {
		if j, dup := seen[key(s)]; dup {
			t.Errorf("sets %d and %d share a key", j, i)
		}
		seen[key(s)] = i
	}

	var memo CountMemo
	for _, s := range append(distinct, b, other.Union(b).Union(a)) {
		got, err := memo.Count(s, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if want := mustCount(t, s); got != want {
			t.Errorf("memo count of %s = %d, want %d", s, got, want)
		}
	}
	if len(memo.counts) != len(distinct) {
		t.Errorf("memo holds %d entries for %d distinct sets", len(memo.counts), len(distinct))
	}
}

func TestPropertyCountMatchesEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dims := []string{"i", "j"}
		sp := NewSetSpace(nil, dims)
		b := Universe(sp)
		// Random small box plus up to 2 random halfplanes.
		for d := 0; d < 2; d++ {
			lo := int64(rr.Intn(7) - 3)
			b.AddRange(d, lo, lo+int64(rr.Intn(8)))
		}
		for k := 0; k < rr.Intn(3); k++ {
			e := sp.NewLinExpr()
			e.VarCoef[0] = int64(rr.Intn(3) - 1)
			e.VarCoef[1] = int64(rr.Intn(3) - 1)
			e.Const = int64(rr.Intn(9) - 4)
			b.AddGE(e)
		}
		s := FromBasic(b)
		sym, err := s.Count(1 << 16)
		if err != nil {
			return true // outside symbolic class is acceptable; skip
		}
		enum, err := s.CountEnumerate(1 << 16)
		if err != nil {
			return false
		}
		return sym == enum
	}
	cfg := &quick.Config{MaxCount: 120, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubtractPartition(t *testing.T) {
	// |A| = |A ∩ B| + |A \ B| for random boxes.
	r := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		mk := func() Set {
			lo := []int64{int64(rr.Intn(5)), int64(rr.Intn(5))}
			hi := []int64{lo[0] + int64(rr.Intn(6)), lo[1] + int64(rr.Intn(6))}
			return box([]string{"i", "j"}, lo, hi)
		}
		a, b := mk(), mk()
		inter := a.Intersect(b)
		diff, exact := a.Subtract(b)
		if !exact {
			return false
		}
		ca, _ := a.CountEnumerate(1 << 16)
		ci, _ := inter.CountEnumerate(1 << 16)
		cd, _ := diff.CountEnumerate(1 << 16)
		return ca == ci+cd
	}
	cfg := &quick.Config{MaxCount: 80, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLinExprFormat(t *testing.T) {
	sp := NewSetSpace([]string{"N"}, []string{"i", "j"})
	e := sp.VarExpr(0).Scale(2).Sub(sp.VarExpr(1)).Add(sp.ParamExpr(0)).AddConst(-3)
	if got := e.Format(sp); got != "N + 2*i - j - 3" {
		t.Fatalf("Format = %q", got)
	}
}

func TestBasicSetString(t *testing.T) {
	sp := NewSetSpace(nil, []string{"i"})
	b := Universe(sp)
	b.AddRange(0, 0, 5)
	s := b.String()
	if s == "" {
		t.Fatal("empty String")
	}
}
