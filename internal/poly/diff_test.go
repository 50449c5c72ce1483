package poly

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ref is the reference polynomial the differential tests compare against:
// an exponent key (one byte per variable) mapped to a nonzero big.Rat, every
// operation written the plain way with no machine-word shortcut.
type ref struct {
	n int
	t map[string]*big.Rat
}

func newRef(n int) ref { return ref{n: n, t: map[string]*big.Rat{}} }

// refOf reads p back through its math/big view.
func refOf(p Poly) ref {
	r := newRef(p.n)
	for k, c := range p.promote() {
		r.t[k] = new(big.Rat).Set(c)
	}
	return r
}

func (r ref) addTerm(key string, c *big.Rat) {
	if c.Sign() == 0 {
		return
	}
	if old, ok := r.t[key]; ok {
		if old.Add(old, c).Sign() == 0 {
			delete(r.t, key)
		}
		return
	}
	r.t[key] = new(big.Rat).Set(c)
}

func refConst(n int, c *big.Rat) ref {
	r := newRef(n)
	r.addTerm(string(make([]byte, n)), c)
	return r
}

func (r ref) add(q ref, sign int64) ref {
	out := newRef(r.n)
	for k, c := range r.t {
		out.addTerm(k, c)
	}
	s := big.NewRat(sign, 1)
	for k, c := range q.t {
		out.addTerm(k, new(big.Rat).Mul(c, s))
	}
	return out
}

func (r ref) scale(c *big.Rat) ref {
	out := newRef(r.n)
	for k, co := range r.t {
		out.addTerm(k, new(big.Rat).Mul(co, c))
	}
	return out
}

func (r ref) mul(q ref) ref {
	out := newRef(r.n)
	key := make([]byte, r.n)
	for k1, c1 := range r.t {
		for k2, c2 := range q.t {
			for i := range key {
				key[i] = k1[i] + k2[i]
			}
			out.addTerm(string(key), new(big.Rat).Mul(c1, c2))
		}
	}
	return out
}

func (r ref) pow(k int) ref {
	out := refConst(r.n, big.NewRat(1, 1))
	for ; k > 0; k-- {
		out = out.mul(r)
	}
	return out
}

func (r ref) eval(pt []*big.Rat) *big.Rat {
	sum := new(big.Rat)
	for k, c := range r.t {
		term := new(big.Rat).Set(c)
		for i := 0; i < r.n; i++ {
			for e := 0; e < int(k[i]); e++ {
				term.Mul(term, pt[i])
			}
		}
		sum.Add(sum, term)
	}
	return sum
}

// byDegree splits r by powers of variable i.
func (r ref) byDegree(i int) map[int]ref {
	out := map[int]ref{}
	for k, c := range r.t {
		rest := []byte(k)
		d := int(rest[i])
		rest[i] = 0
		if _, ok := out[d]; !ok {
			out[d] = newRef(r.n)
		}
		out[d].addTerm(string(rest), c)
	}
	return out
}

func (r ref) subst(i int, q ref) ref {
	out := newRef(r.n)
	for d, part := range r.byDegree(i) {
		out = out.add(part.mul(q.pow(d)), 1)
	}
	return out
}

// sumVar is the textbook form: sum_d part_d * (S_d(U) - S_d(L-1)) with S_d
// written out from the Bernoulli numbers.
func (r ref) sumVar(i int, L, U ref) ref {
	lm1 := L.add(refConst(r.n, big.NewRat(1, 1)), -1)
	out := newRef(r.n)
	for d, part := range r.byDegree(i) {
		span := newRef(r.n)
		binom := big.NewInt(1) // C(d+1, j)
		for j := 0; j <= d; j++ {
			f := new(big.Rat).SetInt(binom)
			f.Mul(f, Bernoulli(j)).Quo(f, big.NewRat(int64(d+1), 1))
			span = span.add(U.pow(d+1-j).add(lm1.pow(d+1-j), -1).scale(f), 1)
			binom.Mul(binom, big.NewInt(int64(d+1-j))).Quo(binom, big.NewInt(int64(j+1)))
		}
		out = out.add(part.mul(span), 1)
	}
	return out
}

func (r ref) extend(m int) ref {
	out := newRef(m)
	for k, c := range r.t {
		key := make([]byte, m)
		copy(key, k)
		out.t[string(key)] = c
	}
	return out
}

func (r ref) degreeOf(i int) int {
	d := 0
	for k := range r.t {
		d = max(d, int(k[i]))
	}
	return d
}

func (r ref) degree() int {
	deg := -1
	for k := range r.t {
		d := 0
		for i := 0; i < r.n; i++ {
			d += int(k[i])
		}
		deg = max(deg, d)
	}
	return deg
}

func (r ref) equal(q ref) bool {
	if r.n != q.n || len(r.t) != len(q.t) {
		return false
	}
	for k, c := range r.t {
		if c2, ok := q.t[k]; !ok || c.Cmp(c2) != 0 {
			return false
		}
	}
	return true
}

// checkForm verifies the representation invariants of the machine-word
// form: sorted distinct keys, no zero numerator, positive denominator in
// lowest terms with the numerators.
func checkForm(t testing.TB, what string, p Poly) {
	t.Helper()
	if p.big != nil {
		if len(p.terms) != 0 {
			t.Fatalf("%s: promoted polynomial kept word terms", what)
		}
		for k, c := range p.big {
			if len(k) != p.n || c.Sign() == 0 {
				t.Fatalf("%s: bad big term %q -> %s", what, k, c)
			}
		}
		return
	}
	if p.den <= 0 {
		t.Fatalf("%s: denominator %d", what, p.den)
	}
	g := uint64(p.den)
	for j, tm := range p.terms {
		if tm.num == 0 {
			t.Fatalf("%s: zero numerator at term %d", what, j)
		}
		if j > 0 && p.terms[j-1].key >= tm.key {
			t.Fatalf("%s: terms not strictly sorted at %d", what, j)
		}
		g = gcd(g, magnitude(tm.num))
	}
	if len(p.terms) == 0 && p.den != 1 {
		t.Fatalf("%s: zero polynomial with denominator %d", what, p.den)
	}
	if len(p.terms) > 0 && g != 1 {
		t.Fatalf("%s: denominator %d shares factor %d with the numerators", what, p.den, g)
	}
}

// agree asserts that p is exactly the reference polynomial want, through
// the term view and through every exported reader.
func agree(t testing.TB, what string, p Poly, want ref) {
	t.Helper()
	checkForm(t, what, p)
	if got := refOf(p); !got.equal(want) {
		t.Fatalf("%s: got %s, reference has %d terms %v", what, p, len(want.t), want.t)
	}
	if p.NumVars() != want.n || p.IsZero() != (len(want.t) == 0) || p.Degree() != want.degree() {
		t.Fatalf("%s: NumVars/IsZero/Degree = %d/%v/%d, reference %d/%v/%d", what,
			p.NumVars(), p.IsZero(), p.Degree(), want.n, len(want.t) == 0, want.degree())
	}
	for i := 0; i < want.n; i++ {
		if p.DegreeOf(i) != want.degreeOf(i) {
			t.Fatalf("%s: DegreeOf(%d) = %d, reference %d", what, i, p.DegreeOf(i), want.degreeOf(i))
		}
	}
	for k, c := range want.t {
		exps := make([]int, want.n)
		for i := range exps {
			exps[i] = int(k[i])
		}
		if got := p.Coeff(exps); got.Cmp(c) != 0 {
			t.Fatalf("%s: Coeff(%v) = %s, reference %s", what, exps, got, c)
		}
	}
	c, isConst := p.IsConst()
	zero := string(make([]byte, want.n))
	wantConst := len(want.t) == 0 || (len(want.t) == 1 && want.t[zero] != nil)
	if isConst != wantConst || (isConst && len(want.t) == 1 && c.Cmp(want.t[zero]) != 0) {
		t.Fatalf("%s: IsConst = %v, %v; reference const %v", what, c, isConst, wantConst)
	}
}

// boundaryInts are coefficient magnitudes on both sides of every place the
// machine-word form can overflow: products of two 32-bit values, sums of two
// 63-bit values, and the int64 extremes themselves.
var boundaryInts = []int64{
	0, 1, 2, 3, 5, 7, 12, 30, 32, 130, 1000,
	1<<31 - 1, 1 << 31, 1<<32 + 1, 3037000499, 3037000500, // floor(sqrt(MaxInt64)) and +1
	1<<62 - 1, 1 << 62, math.MaxInt64 - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

func randInt(r *rand.Rand, wild bool) int64 {
	if !wild {
		return r.Int63n(41) - 20
	}
	v := boundaryInts[r.Intn(len(boundaryInts))]
	if r.Intn(2) == 0 && v != math.MinInt64 {
		v = -v
	}
	return v
}

func randRat(r *rand.Rand, wild bool) *big.Rat {
	den := randInt(r, wild)
	if !wild {
		den = 1 + r.Int63n(3)
	} else if den == 0 {
		den = 1
	}
	// big.NewRat mishandles MinInt64 denominators; build from Ints.
	return new(big.Rat).SetFrac(big.NewInt(randInt(r, wild)), big.NewInt(den))
}

// randPair builds the same random polynomial through the exported
// constructors and in the reference. maxExp bounds each variable's exponent.
func randPair(r *rand.Rand, n, maxExp int, wild bool) (Poly, ref) {
	p, q := New(n), newRef(n)
	for range r.Intn(5) {
		c := randRat(r, wild)
		mono, key := Const(n, c), make([]byte, n)
		for v := 0; v < n; v++ {
			if n > 4 && r.Intn(3) != 0 {
				continue
			}
			e := r.Intn(maxExp + 1)
			key[v] = byte(e)
			mono = mono.Mul(Var(n, v).Pow(e))
		}
		p = p.Add(mono)
		q.addTerm(string(key), c)
	}
	return p, q
}

// diffOps applies every exported operation to one operand set and compares
// each result with the reference. It reports whether any result needed
// math/big.
func diffOps(t testing.TB, r *rand.Rand, n, maxExp int, wild bool) (promoted bool) {
	a, ra := randPair(r, n, maxExp, wild)
	b, rb := randPair(r, n, maxExp, wild)
	agree(t, "operand a", a, ra)
	agree(t, "operand b", b, rb)
	c := randRat(r, wild)
	ci := randInt(r, wild)
	i := r.Intn(n)
	// Summation bounds may not involve the summed variable.
	one, rone := ConstInt(n, 1), refConst(n, big.NewRat(1, 1))
	lo, rlo := b.SubstPoly(i, one), rb.subst(i, rone)
	hi, rhi := a.SubstPoly(i, one), ra.subst(i, rone)

	results := []struct {
		what string
		got  Poly
		want ref
	}{
		{"Add", a.Add(b), ra.add(rb, 1)},
		{"Sub", a.Sub(b), ra.add(rb, -1)},
		{"Neg", a.Neg(), ra.scale(big.NewRat(-1, 1))},
		{"Scale", a.Scale(c), ra.scale(c)},
		{"ScaleInt", a.ScaleInt(ci), ra.scale(new(big.Rat).SetInt64(ci))},
		{"Mul", a.Mul(b), ra.mul(rb)},
		{"Pow", a.Pow(2), ra.pow(2)},
		{"SubstPoly", a.SubstPoly(i, b), ra.subst(i, rb)},
		{"SumVar", SumVar(a, i, lo, hi), ra.sumVar(i, rlo, rhi)},
		{"ExtendVars", a.ExtendVars(n + 3), ra.extend(n + 3)},
		{"Const", Const(n, c), refConst(n, c)},
		{"ConstInt", ConstInt(n, ci), refConst(n, new(big.Rat).SetInt64(ci))},
	}
	for _, res := range results {
		agree(t, res.what, res.got, res.want)
		promoted = promoted || res.got.big != nil
	}
	if a.Equal(b) != ra.equal(rb) || !a.Equal(a.Add(b).Sub(b)) {
		t.Fatalf("Equal disagrees with the reference on %s vs %s", a, b)
	}
	pt, ipt := make([]*big.Rat, n), make([]int64, n)
	for v := range pt {
		ipt[v] = r.Int63n(9) - 4
		pt[v] = big.NewRat(ipt[v], 1)
	}
	want := ra.eval(pt)
	if got := a.Eval(pt); got.Cmp(want) != 0 {
		t.Fatalf("Eval(%v) of %s = %s, reference %s", ipt, a, got, want)
	}
	if got := a.EvalInt(ipt); got.Cmp(want) != 0 {
		t.Fatalf("EvalInt(%v) of %s = %s, reference %s", ipt, a, got, want)
	}
	v, ok := a.EvalInt64(ipt)
	wantOK := want.IsInt() && want.Num().IsInt64()
	if ok != wantOK || (ok && v != want.Num().Int64()) {
		t.Fatalf("EvalInt64(%v) of %s = %d, %v; reference %s", ipt, a, v, ok, want)
	}
	return promoted
}

// TestDifferentialAgainstBigRat runs every exported operation on random
// operands against the math/big reference: small operands, which must stay
// in machine words, and operands chosen around the int64 and exponent-field
// limits, which must promote and still agree.
func TestDifferentialAgainstBigRat(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 3, 8} {
		for iter := 0; iter < 300; iter++ {
			if diffOps(t, r, n, 3, false) {
				t.Fatalf("n=%d: small operands left the machine-word form", n)
			}
		}
	}
	promotions := 0
	// n = 12 and 20 pack exponents in 5 and 3 bits, which the powers inside
	// SumVar and SubstPoly overflow; n = 70 has no packed form at all.
	for _, tc := range []struct{ n, maxExp int }{{1, 3}, {2, 3}, {4, 2}, {9, 3}, {12, 5}, {20, 2}, {70, 2}} {
		for iter := 0; iter < 300; iter++ {
			if diffOps(t, r, tc.n, tc.maxExp, true) {
				promotions++
			}
		}
	}
	if promotions < 100 {
		t.Fatalf("only %d operand sets exercised the promotion path", promotions)
	}
}

// TestPromotionAtTheBoundary pins the exact edge: the last product and sum
// that fit stay in machine words, the next ones promote, and both are
// right.
func TestPromotionAtTheBoundary(t *testing.T) {
	x := Var(1, 0)
	fits := x.ScaleInt(3037000499).Mul(x.ScaleInt(3037000499))
	over := x.ScaleInt(3037000500).Mul(x.ScaleInt(3037000500))
	if fits.big != nil || over.big == nil {
		t.Fatalf("Mul: promoted = %v / %v, want false / true", fits.big != nil, over.big != nil)
	}
	want := new(big.Rat).SetInt(new(big.Int).Mul(big.NewInt(3037000500), big.NewInt(3037000500)))
	if got := over.Coeff([]int{2}); got.Cmp(want) != 0 {
		t.Fatalf("promoted product coefficient %s, want %s", got, want)
	}
	top := ConstInt(1, math.MaxInt64)
	if s := top.Add(ConstInt(1, -1)); s.big != nil {
		t.Fatal("MaxInt64 - 1 promoted")
	}
	s := top.Add(ConstInt(1, 1))
	if s.big == nil {
		t.Fatal("MaxInt64 + 1 stayed in machine words")
	}
	if c, _ := s.IsConst(); c.Cmp(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 63))) != 0 {
		t.Fatalf("MaxInt64 + 1 = %s", c)
	}
	// A promoted operand keeps working with machine-word ones.
	if back := s.Sub(ConstInt(1, 1)); !back.Equal(top) {
		t.Fatalf("(MaxInt64 + 1) - 1 = %s", back)
	}
	// So does an exponent that outgrows its packed field (7 bits at n = 9).
	y := Var(9, 4).Pow(100)
	if y.big != nil {
		t.Fatal("x^100 promoted at n = 9")
	}
	if sq := y.Mul(y); sq.big == nil || sq.DegreeOf(4) != 200 || sq.Degree() != 200 {
		t.Fatalf("x^100 * x^100 = %s (promoted %v)", sq, sq.big != nil)
	}
	// A common denominator that no longer fits promotes too.
	third := Const(1, big.NewRat(1, 3037000507))
	if sum := third.Add(Const(1, big.NewRat(1, 3037000493))); sum.big == nil {
		t.Fatal("denominator product beyond int64 stayed in machine words")
	}
}

// FuzzPolyArith drives the differential check from fuzzer-chosen seeds and
// shapes.
func FuzzPolyArith(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(3), false)
	f.Add(int64(2), uint8(4), uint8(2), true)
	f.Add(int64(3), uint8(12), uint8(5), true)
	f.Add(int64(4), uint8(70), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n, maxExp uint8, wild bool) {
		// The (deg+1)-th powers inside SumVar must stay within the byte
		// exponents both forms share: (5+1)*5+5 = 35.
		diffOps(t, rand.New(rand.NewSource(seed)), int(n)%72+1, int(maxExp)%6, wild)
	})
}
