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
// one parameter and up to three dims, then checks Count of the instantiated
// set against enumeration, and the parametric count against the
// instantiated one.
func FuzzCountAgainstEnumeration(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{2, 9, 200, 17, 33, 4, 91, 12, 5, 77, 3})
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
		dims := 1 + next(3)
		sp := NewSetSpace([]string{"N"}, []string{"i", "j", "k"}[:dims])
		b := Universe(sp)
		for d := 0; d < dims; d++ {
			// Bound every dim to [-4, N + 4] so enumeration stays small.
			b.AddGE(sp.VarExpr(d).AddConst(4))
			b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(d)).AddConst(4))
		}
		for rows := next(6); rows > 0; rows-- {
			e := sp.ConstExpr(int64(next(13) - 6))
			if next(2) == 0 {
				e = e.Add(sp.ParamExpr(0).Scale(int64(next(3) - 1)))
			}
			for d := 0; d < dims; d++ {
				e = e.Add(sp.VarExpr(d).Scale(int64(next(5) - 2)))
			}
			if next(4) == 0 {
				b.AddEQ(e)
			} else {
				b.AddGE(e)
			}
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
