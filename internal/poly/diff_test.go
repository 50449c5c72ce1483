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

// refOf reads a machine-word polynomial into the reference form.
func refOf(p Poly) ref {
	r := newRef(p.n)
	for _, t := range p.terms {
		key := make([]byte, p.n)
		for i := range key {
			key[i] = byte(p.exp(t.key, i))
		}
		r.t[string(key)] = big.NewRat(t.num, p.den)
	}
	return r
}

// fits reports whether r has a machine-word form with w-bit exponent
// fields: every exponent below 1<<w, and the common denominator and every
// numerator over it within int64.
func (r ref) fits(w uint8) bool {
	den := big.NewInt(1)
	for k, c := range r.t {
		for _, e := range []byte(k) {
			if int(e) >= 1<<w {
				return false
			}
		}
		g := new(big.Int).GCD(nil, nil, den, c.Denom())
		den.Mul(den, new(big.Int).Quo(c.Denom(), g))
	}
	if !den.IsInt64() {
		return false
	}
	for _, c := range r.t {
		if num := new(big.Int).Mul(c.Num(), new(big.Int).Quo(den, c.Denom())); !num.IsInt64() {
			return false
		}
	}
	return true
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

// checkForm verifies the representation invariants: sorted distinct keys,
// no zero numerator, positive denominator in lowest terms with the
// numerators; an overflowed polynomial has no terms.
func checkForm(t testing.TB, what string, p Poly) {
	t.Helper()
	if p.Overflowed() {
		if len(p.terms) != 0 || p.IsZero() {
			t.Fatalf("%s: overflowed polynomial kept terms or reads as zero", what)
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

// agree asserts that the word polynomial p is exactly the reference
// polynomial want, through the term view and through every exported reader.
func agree(t testing.TB, what string, p Poly, want ref) {
	t.Helper()
	checkForm(t, what, p)
	if p.Overflowed() {
		t.Fatalf("%s: overflowed, reference %v fits", what, want.t)
	}
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
		if num, den, ok := p.Coeff(exps); !ok || big.NewRat(num, den).Cmp(c) != 0 {
			t.Fatalf("%s: Coeff(%v) = %d/%d, %v; reference %s", what, exps, num, den, ok, c)
		}
	}
	c, isConst := p.IsConst()
	zero := string(make([]byte, want.n))
	wc := want.t[zero]
	wantConst := len(want.t) == 0 || (len(want.t) == 1 && wc != nil && wc.IsInt())
	if isConst != wantConst || (isConst && len(want.t) == 1 && wc.Cmp(big.NewRat(c, 1)) != 0) {
		t.Fatalf("%s: IsConst = %d, %v; reference integer constant %v", what, c, isConst, wantConst)
	}
}

// overflowStats counts, over one test, the results the reference could
// not hold in words (each must be overflowed) and the ones it could but
// an intermediate word could not (a sum or product before cancellation).
type overflowStats struct{ beyond, intermediate, words int }

// check asserts the overflow contract for one result: a result computed
// from an overflowed operand is overflowed; one the reference cannot hold
// in words is overflowed; and a result that is not overflowed equals the
// reference exactly.
func (st *overflowStats) check(t testing.TB, what string, got Poly, want ref, fromOverflowed bool) {
	t.Helper()
	checkForm(t, what, got)
	switch fits := want.fits(got.w); {
	case fromOverflowed && !got.Overflowed():
		t.Fatalf("%s: an overflowed operand gave %s", what, got)
	case fromOverflowed:
	case !fits && !got.Overflowed():
		t.Fatalf("%s: reference %v does not fit words, got %s", what, want.t, got)
	case !fits:
		st.beyond++
	case got.Overflowed():
		st.intermediate++
	default:
		agree(t, what, got, want)
		st.words++
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

// randRat returns a random rational in lowest terms, as the num/den pair
// the word form takes and as a big.Rat.
func randRat(r *rand.Rand, wild bool) (num, den int64, c *big.Rat) {
	num, den = randInt(r, wild), 1+r.Int63n(3)
	if wild {
		if den = randInt(r, true); den == 0 || den == math.MinInt64 {
			den = 1
		}
		den = max(den, -den)
	}
	g := int64(gcd(magnitude(num), uint64(den)))
	num, den = num/g, den/g
	return num, den, big.NewRat(num, den)
}

// randPair builds the same random polynomial through the exported
// constructors and in the reference. maxExp bounds each variable's exponent.
func randPair(r *rand.Rand, n, maxExp int, wild bool) (Poly, ref) {
	p, q := New(n), newRef(n)
	for range r.Intn(5) {
		num, den, c := randRat(r, wild)
		mono, key := ConstInt(n, 1).scale(num, den), make([]byte, n)
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

// evalFits reports whether every word EvalInt64 computes for p at pt fits
// an int64: each term's value, built up one factor at a time, and each
// partial sum.
func evalFits(p Poly, pt []int64) bool {
	sum := new(big.Int)
	for _, t := range p.terms {
		v := big.NewInt(t.num)
		for i, x := range pt {
			for e := p.exp(t.key, i); e > 0; e-- {
				if !v.Mul(v, big.NewInt(x)).IsInt64() {
					return false
				}
			}
		}
		if !sum.Add(sum, v).IsInt64() {
			return false
		}
	}
	return true
}

// diffOps applies every operation to one operand set and checks each
// result against the reference under the overflow contract.
func diffOps(t testing.TB, r *rand.Rand, n, maxExp int, wild bool, st *overflowStats) {
	a, ra := randPair(r, n, maxExp, wild)
	b, rb := randPair(r, n, maxExp, wild)
	st.check(t, "operand a", a, ra, false)
	st.check(t, "operand b", b, rb, false)
	cn, cd, c := randRat(r, wild)
	ci := randInt(r, wild)
	i := r.Intn(n)
	// Summation bounds may not involve the summed variable.
	one, rone := ConstInt(n, 1), refConst(n, big.NewRat(1, 1))
	lo, rlo := b.SubstPoly(i, one), rb.subst(i, rone)
	hi, rhi := a.SubstPoly(i, one), ra.subst(i, rone)
	wide := a.Resize(n + 3)
	ao, bo := a.Overflowed(), b.Overflowed()

	results := []struct {
		what string
		got  Poly
		want ref
		from bool // an operand was overflowed
	}{
		{"Add", a.Add(b), ra.add(rb, 1), ao || bo},
		{"Sub", a.Sub(b), ra.add(rb, -1), ao || bo},
		{"ScaleInt(-1)", a.ScaleInt(-1), ra.scale(big.NewRat(-1, 1)), ao},
		{"scale", a.scale(cn, cd), ra.scale(c), ao},
		{"ScaleInt", a.ScaleInt(ci), ra.scale(new(big.Rat).SetInt64(ci)), ao},
		{"Mul", a.Mul(b), ra.mul(rb), ao || bo},
		{"Pow", a.Pow(2), ra.pow(2), ao},
		{"SubstPoly", a.SubstPoly(i, b), ra.subst(i, rb), ao || bo},
		{"SumVar", SumVar(a, i, lo, hi), ra.sumVar(i, rlo, rhi), ao || lo.Overflowed() || hi.Overflowed()},
		{"Resize up", wide, ra.extend(n + 3), ao},
		{"Resize down", wide.Resize(n), ra, wide.Overflowed()},
		{"constant", ConstInt(n, 1).scale(cn, cd), refConst(n, c), false},
		{"ConstInt", ConstInt(n, ci), refConst(n, new(big.Rat).SetInt64(ci)), false},
	}
	for _, res := range results {
		st.check(t, res.what, res.got, res.want, res.from)
	}
	if !ao && !bo && a.Equal(b) != ra.equal(rb) {
		t.Fatalf("Equal disagrees with the reference on %s vs %s", a, b)
	}
	if back := a.Add(b).Sub(b); !back.Overflowed() && !a.Equal(back) {
		t.Fatalf("(a + b) - b = %s, a = %s", back, a)
	}
	if ao && a.Equal(a) {
		t.Fatal("an overflowed polynomial equals itself")
	}
	if ao {
		return
	}
	pt, ipt := make([]*big.Rat, n), make([]int64, n)
	for v := range pt {
		ipt[v] = r.Int63n(9) - 4
		pt[v] = big.NewRat(ipt[v], 1)
	}
	want := ra.eval(pt)
	wantOK := want.IsInt() && want.Num().IsInt64()
	switch v, ok := a.EvalInt64(ipt); {
	case ok && (!wantOK || v != want.Num().Int64()):
		t.Fatalf("EvalInt64(%v) of %s = %d; reference %s", ipt, a, v, want)
	case !ok && wantOK && evalFits(a, ipt):
		t.Fatalf("EvalInt64(%v) of %s refused %s, and every word fits", ipt, a, want)
	}
}

// TestDifferentialAgainstBigRat runs every operation on random operands
// against the math/big reference: small operands, which must never
// overflow, and operands chosen around the int64 and exponent-field
// limits, where a result the reference cannot hold in words must report
// overflow and a result that does not must equal the reference.
func TestDifferentialAgainstBigRat(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	var small overflowStats
	for _, n := range []int{1, 3, 8} {
		for iter := 0; iter < 300; iter++ {
			diffOps(t, r, n, 3, false, &small)
		}
	}
	if small.beyond+small.intermediate > 0 {
		t.Fatalf("small operands overflowed: %+v", small)
	}
	var wild overflowStats
	// n = 12 and 20 pack exponents in 5 and 3 bits, which the powers inside
	// SumVar and SubstPoly overflow; n = 70 has no variable fields at all.
	for _, tc := range []struct{ n, maxExp int }{{1, 3}, {2, 3}, {4, 2}, {9, 3}, {12, 5}, {20, 2}, {70, 2}} {
		for iter := 0; iter < 300; iter++ {
			diffOps(t, r, tc.n, tc.maxExp, true, &wild)
		}
	}
	t.Logf("wild operands: %d results in words, %d beyond words, %d overflowed in an intermediate word",
		wild.words, wild.beyond, wild.intermediate)
	if wild.beyond < 100 || wild.words < 100 {
		t.Fatalf("the wild operands did not exercise both sides of the limit: %+v", wild)
	}
}

// TestOverflowAtTheBoundary pins the exact edge: the last product, sum,
// exponent and denominator that fit stay in words, the next ones report
// overflow, and an overflowed polynomial stays overflowed.
func TestOverflowAtTheBoundary(t *testing.T) {
	x := Var(1, 0)
	fits := x.ScaleInt(3037000499).Mul(x.ScaleInt(3037000499))
	over := x.ScaleInt(3037000500).Mul(x.ScaleInt(3037000500))
	if fits.Overflowed() || !over.Overflowed() {
		t.Fatalf("Mul: overflowed = %v / %v, want false / true", fits.Overflowed(), over.Overflowed())
	}
	if num, den, ok := fits.Coeff([]int{2}); !ok || num != 3037000499*3037000499 || den != 1 {
		t.Fatalf("product coefficient %d/%d, %v", num, den, ok)
	}
	top := ConstInt(1, math.MaxInt64)
	if s := top.Add(ConstInt(1, -1)); s.Overflowed() {
		t.Fatal("MaxInt64 - 1 overflowed")
	}
	s := top.Add(ConstInt(1, 1))
	if !s.Overflowed() || s.IsZero() {
		t.Fatal("MaxInt64 + 1 did not report overflow")
	}
	if c, ok := s.IsConst(); ok {
		t.Fatalf("overflowed IsConst = %d, true", c)
	}
	// Overflow sticks: no later operation brings a value back.
	if back := s.Sub(ConstInt(1, 1)); !back.Overflowed() || back.Equal(top) {
		t.Fatalf("(MaxInt64 + 1) - 1 = %s", back)
	}
	if z := s.Mul(New(1)); !z.Overflowed() {
		t.Fatalf("overflow * 0 = %s", z)
	}
	if v, ok := s.EvalInt64([]int64{0}); ok {
		t.Fatalf("overflowed EvalInt64 = %d, true", v)
	}
	// An exponent that outgrows its packed field (7 bits at n = 9).
	y := Var(9, 4).Pow(100)
	if y.Overflowed() || y.DegreeOf(4) != 100 {
		t.Fatalf("x^100 at n = 9 = %s", y)
	}
	if sq := y.Mul(y); !sq.Overflowed() {
		t.Fatalf("x^100 * x^100 at n = 9 = %s", sq)
	}
	// A common denominator that no longer fits.
	third := ConstInt(1, 1).scale(1, 3037000507)
	if sum := third.Add(ConstInt(1, 1).scale(1, 3037000493)); !sum.Overflowed() {
		t.Fatalf("1/3037000507 + 1/3037000493 = %s", sum)
	}
	// A space wider than one key word holds constants only.
	if !Var(70, 3).Overflowed() || ConstInt(70, 5).Overflowed() || !Var(8, 1).Resize(70).Overflowed() {
		t.Fatal("a 70-variable space held a variable")
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
		// exponents of the reference: (5+1)*5+5 = 35.
		diffOps(t, rand.New(rand.NewSource(seed)), int(n)%72+1, int(maxExp)%6, wild, new(overflowStats))
	})
}
