package poly

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestZeroAndConst(t *testing.T) {
	z := New(3)
	if !z.IsZero() {
		t.Fatal("New should be zero")
	}
	c := ConstInt(3, 7)
	if got, ok := c.IsConst(); !ok || got != 7 {
		t.Fatalf("ConstInt(7) = %v, %v", got, ok)
	}
	if c.Degree() != 0 {
		t.Fatalf("const degree = %d", c.Degree())
	}
	if z.Degree() != -1 {
		t.Fatalf("zero degree = %d", z.Degree())
	}
}

func TestAddSubCancel(t *testing.T) {
	p := Var(2, 0).Add(Var(2, 1).ScaleInt(3)).Add(ConstInt(2, 5))
	q := p.Sub(p)
	if !q.IsZero() {
		t.Fatalf("p - p = %s, want 0", q)
	}
}

func TestMulDistributes(t *testing.T) {
	x, y := Var(2, 0), Var(2, 1)
	lhs := x.Add(y).Mul(x.Sub(y))
	rhs := x.Mul(x).Sub(y.Mul(y))
	if !lhs.Equal(rhs) {
		t.Fatalf("(x+y)(x-y) = %s, want %s", lhs, rhs)
	}
}

func TestPow(t *testing.T) {
	x := Var(1, 0)
	p := x.Add(ConstInt(1, 1)).Pow(3) // (x+1)^3
	want := x.Pow(3).Add(x.Pow(2).ScaleInt(3)).Add(x.ScaleInt(3)).Add(ConstInt(1, 1))
	if !p.Equal(want) {
		t.Fatalf("(x+1)^3 = %s, want %s", p, want)
	}
	if !x.Pow(0).Equal(ConstInt(1, 1)) {
		t.Fatal("x^0 != 1")
	}
}

func TestEval(t *testing.T) {
	// p = 2*x^2*y - 3*y + 1 at (x,y) = (3, 2): 2*9*2 - 6 + 1 = 31.
	x, y := Var(2, 0), Var(2, 1)
	p := x.Pow(2).Mul(y).ScaleInt(2).Sub(y.ScaleInt(3)).Add(ConstInt(2, 1))
	v, ok := p.EvalInt64([]int64{3, 2})
	if !ok || v != 31 {
		t.Fatalf("EvalInt64 = %d, %v", v, ok)
	}
	// x/2 is an integer at even x only.
	half := x.scale(1, 2)
	if v, ok := half.EvalInt64([]int64{6, 0}); !ok || v != 3 {
		t.Fatalf("x/2 at 6 = %d, %v", v, ok)
	}
	if v, ok := half.EvalInt64([]int64{5, 0}); ok {
		t.Fatalf("x/2 at 5 = %d, true", v)
	}
}

func TestSubstPoly(t *testing.T) {
	// p = x^2 + y, substitute x := y+1 -> (y+1)^2 + y = y^2 + 3y + 1.
	x, y := Var(2, 0), Var(2, 1)
	p := x.Pow(2).Add(y)
	got := p.SubstPoly(0, y.Add(ConstInt(2, 1)))
	want := y.Pow(2).Add(y.ScaleInt(3)).Add(ConstInt(2, 1))
	if !got.Equal(want) {
		t.Fatalf("subst = %s, want %s", got, want)
	}
}

func TestExtendVars(t *testing.T) {
	p := Var(1, 0).Pow(2).Add(ConstInt(1, 4))
	q := p.Resize(3)
	if q.NumVars() != 3 {
		t.Fatalf("NumVars = %d", q.NumVars())
	}
	if got, ok := q.EvalInt64([]int64{5, 9, 9}); !ok || got != 29 {
		t.Fatalf("extended eval = %d, %v", got, ok)
	}
	if back := q.Resize(1); !back.Equal(p) {
		t.Fatalf("shrunk back = %s, want %s", back, p)
	}
}

func TestBernoulliKnownValues(t *testing.T) {
	want := []*big.Rat{
		rat(1, 1), rat(1, 2), rat(1, 6), rat(0, 1), rat(-1, 30),
		rat(0, 1), rat(1, 42), rat(0, 1), rat(-1, 30), rat(0, 1), rat(5, 66),
	}
	for n, w := range want {
		if got := Bernoulli(n); got.Cmp(w) != 0 {
			t.Errorf("B+_%d = %s, want %s", n, got.RatString(), w.RatString())
		}
	}
}

func TestSumPowMatchesDirectSum(t *testing.T) {
	for k := 0; k <= 6; k++ {
		sk := SumPow(k)
		for n := int64(0); n <= 20; n++ {
			direct := int64(0)
			for x := int64(1); x <= n; x++ {
				pw := int64(1)
				for e := 0; e < k; e++ {
					pw *= x
				}
				direct += pw
			}
			if got, ok := sk.EvalInt64([]int64{n}); !ok || got != direct {
				t.Fatalf("S_%d(%d) = %d, %v, want %d", k, n, got, ok, direct)
			}
		}
	}
}

func TestSumPowTelescopes(t *testing.T) {
	// S_k(n) - S_k(n-1) = n^k must hold for negative n too.
	for k := 0; k <= 5; k++ {
		sk := SumPow(k)
		for n := int64(-10); n <= 10; n++ {
			hi, ok1 := sk.EvalInt64([]int64{n})
			lo, ok2 := sk.EvalInt64([]int64{n - 1})
			pw := int64(1)
			for e := 0; e < k; e++ {
				pw *= n
			}
			if !ok1 || !ok2 || hi-lo != pw {
				t.Fatalf("S_%d(%d)-S_%d(%d) = %d, want %d", k, n, k, n-1, hi-lo, pw)
			}
		}
	}
}

func TestSumVarConstantBody(t *testing.T) {
	// sum_{x=L}^{U} 1 = U - L + 1.
	p := ConstInt(2, 1)
	L := ConstInt(2, 3)
	U := Var(2, 1) // upper bound is the other variable
	s := SumVar(p, 0, L, U)
	for u := int64(3); u <= 10; u++ {
		got, ok := s.EvalInt64([]int64{0, u})
		if !ok || got != u-3+1 {
			t.Fatalf("count(3..%d) = %d, want %d", u, got, u-2)
		}
	}
}

func TestSumVarTriangular(t *testing.T) {
	// sum_{j=0}^{i} sum_{k=0}^{j} 1 = (i+1)(i+2)/2.
	one := ConstInt(3, 1)
	zero := ConstInt(3, 0)
	inner := SumVar(one, 2, zero, Var(3, 1))   // over k in [0, j]
	outer := SumVar(inner, 1, zero, Var(3, 0)) // over j in [0, i]
	for i := int64(0); i <= 12; i++ {
		got, ok := outer.EvalInt64([]int64{i, 0, 0})
		want := (i + 1) * (i + 2) / 2
		if !ok || got != want {
			t.Fatalf("triangular(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestSumVarNegativeBounds(t *testing.T) {
	// sum_{x=-5}^{5} x^2 = 2*55 = 110.
	p := Var(1, 0).Pow(2)
	s := SumVar(p, 0, ConstInt(1, -5), ConstInt(1, 5))
	got, ok := s.EvalInt64([]int64{0})
	if !ok || got != 110 {
		t.Fatalf("sum = %d, want 110", got)
	}
}

func TestSumVarEmptyRangeIsZeroAtLMinus1(t *testing.T) {
	// At U = L-1 the telescoped sum must evaluate to exactly 0.
	p := Var(1, 0).Pow(3).Add(Var(1, 0))
	s := SumVar(p, 0, ConstInt(1, 7), ConstInt(1, 6))
	if got, ok := s.EvalInt64([]int64{0}); !ok || got != 0 {
		t.Fatalf("sum over empty range = %d", got)
	}
}

// randPoly builds a small random polynomial for property tests.
func randPoly(r *rand.Rand, n int) Poly {
	p := New(n)
	terms := 1 + r.Intn(4)
	for t := 0; t < terms; t++ {
		m := ConstInt(n, int64(r.Intn(11)-5))
		for i := 0; i < n; i++ {
			e := r.Intn(3)
			if e > 0 {
				m = m.Mul(Var(n, i).Pow(e))
			}
		}
		p = p.Add(m)
	}
	return p
}

func TestPropertyRingAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randPoly(rr, 2), randPoly(rr, 2), randPoly(rr, 2)
		// Commutativity, associativity, distributivity.
		if !a.Add(b).Equal(b.Add(a)) {
			return false
		}
		if !a.Mul(b).Equal(b.Mul(a)) {
			return false
		}
		if !a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c))) {
			return false
		}
		// Evaluation is a homomorphism.
		pt := []int64{int64(rr.Intn(7) - 3), int64(rr.Intn(7) - 3)}
		lhs, ok1 := a.Mul(b).EvalInt64(pt)
		va, ok2 := a.EvalInt64(pt)
		vb, ok3 := b.EvalInt64(pt)
		return ok1 && ok2 && ok3 && lhs == va*vb
	}
	cfg := &quick.Config{MaxCount: 60, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySumVarMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		p := randPoly(rr, 2) // vars: x (summed), y (free)
		lo := int64(rr.Intn(9) - 4)
		hi := lo + int64(rr.Intn(8))
		s := SumVar(p, 0, ConstInt(2, lo), ConstInt(2, hi))
		y := int64(rr.Intn(7) - 3)
		direct := int64(0)
		for x := lo; x <= hi; x++ {
			v, ok := p.EvalInt64([]int64{x, y})
			if !ok {
				return false
			}
			direct += v
		}
		got, ok := s.EvalInt64([]int64{0, y})
		return ok && got == direct
	}
	cfg := &quick.Config{MaxCount: 80, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringDeterministic(t *testing.T) {
	p := Var(2, 0).Pow(2).Add(Var(2, 1).ScaleInt(-3)).Add(ConstInt(2, 1))
	s1, s2 := p.String(), p.String()
	if s1 != s2 {
		t.Fatalf("nondeterministic String: %q vs %q", s1, s2)
	}
	if got := p.Format([]string{"i", "j"}); got != "i^2 - 3*j + 1" {
		t.Fatalf("Format = %q", got)
	}
}

func TestCoeffAndDegreeOf(t *testing.T) {
	p := Var(2, 0).Pow(3).Mul(Var(2, 1)).ScaleInt(5)
	if num, den, ok := p.Coeff([]int{3, 1}); !ok || num != 5 || den != 1 {
		t.Fatalf("Coeff = %d/%d, %v", num, den, ok)
	}
	if num, den, ok := p.scale(3, 4).Coeff([]int{3, 1}); !ok || num != 15 || den != 4 {
		t.Fatalf("Coeff of 3/4 * p = %d/%d, %v", num, den, ok)
	}
	if p.DegreeOf(0) != 3 || p.DegreeOf(1) != 1 {
		t.Fatalf("DegreeOf = %d, %d", p.DegreeOf(0), p.DegreeOf(1))
	}
	if p.Degree() != 4 {
		t.Fatalf("Degree = %d", p.Degree())
	}
}
