package isl

import (
	"math/big"
	"testing"
)

func TestSymbolicBoxCount(t *testing.T) {
	// {[i,j] : 0 <= i < N, 0 <= j < M}: count = N*M for N,M >= 1.
	sp := NewSetSpace([]string{"N", "M"}, []string{"i", "j"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	b.AddGE(sp.VarExpr(1))
	b.AddGE(sp.ParamExpr(1).Sub(sp.VarExpr(1)).AddConst(-1))
	pieces, err := b.CountSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	for _, nm := range [][2]int64{{1, 1}, {5, 7}, {100, 3}} {
		got := EvalPieces(pieces, nm[:])
		want := big.NewRat(nm[0]*nm[1], 1)
		if got.Cmp(want) != 0 {
			t.Fatalf("count(%v) = %s, want %s", nm, got.RatString(), want.RatString())
		}
	}
	// Formula must literally be N*M.
	if s := pieces[0].Count.Format([]string{"N", "M"}); s != "N*M" {
		t.Fatalf("formula = %q", s)
	}
}

func TestSymbolicTriangleCount(t *testing.T) {
	// {[i,j] : 0 <= i < N, 0 <= j <= i}: N(N+1)/2.
	sp := NewSetSpace([]string{"N"}, []string{"i", "j"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	b.AddGE(sp.VarExpr(1))
	b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1)))
	pieces, err := b.CountSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(1); n <= 30; n++ {
		got := EvalPieces(pieces, []int64{n})
		want := big.NewRat(n*(n+1)/2, 1)
		if got.Cmp(want) != 0 {
			t.Fatalf("count(%d) = %s, want %s", n, got.RatString(), want.RatString())
		}
	}
}

func TestSymbolicMatchesInstantiated(t *testing.T) {
	// Cross-validate the parametric count against instantiate-then-count
	// for a clipped band: {[i,j]: 0<=i<N, i-2 <= j <= i+2, 0<=j<N}.
	sp := NewSetSpace([]string{"N"}, []string{"i", "j"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	b.AddGE(sp.VarExpr(1).Sub(sp.VarExpr(0)).AddConst(2)) // j >= i-2
	b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1)).AddConst(2)) // j <= i+2
	b.AddGE(sp.VarExpr(1))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(1)).AddConst(-1))
	pieces, err := b.CountSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) < 2 {
		t.Fatalf("expected chamber split for the clipped band, got %d pieces", len(pieces))
	}
	for n := int64(1); n <= 25; n++ {
		inst, err := FromBasic(b).InstantiateParams([]int64{n})
		if err != nil {
			t.Fatal(err)
		}
		want, err := inst.CountInt(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		got := EvalPieces(pieces, []int64{n})
		if !got.IsInt() || got.Num().Int64() != want {
			t.Fatalf("count(%d) = %s, want %d", n, got.RatString(), want)
		}
	}
}

func TestSymbolicEmptyGuard(t *testing.T) {
	// {[i] : 5 <= i < N}: count = N-5 valid only when N >= 6; at N = 3 the
	// guards must exclude the piece.
	sp := NewSetSpace([]string{"N"}, []string{"i"})
	b := Universe(sp)
	b.AddGE(sp.VarExpr(0).AddConst(-5))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	pieces, err := b.CountSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	if got := EvalPieces(pieces, []int64{3}); got.Sign() != 0 {
		t.Fatalf("count(3) = %s, want 0", got.RatString())
	}
	if got := EvalPieces(pieces, []int64{12}); got.Cmp(big.NewRat(7, 1)) != 0 {
		t.Fatalf("count(12) = %s, want 7", got.RatString())
	}
}

func TestSymbolicGemmFlopsFormula(t *testing.T) {
	// The flop count of gemm's update statement is 2*N^3 — 2x the domain
	// cardinality of the cube {0<=i,j,k<N}.
	sp := NewSetSpace([]string{"N"}, []string{"i", "j", "k"})
	b := Universe(sp)
	for d := 0; d < 3; d++ {
		b.AddGE(sp.VarExpr(d))
		b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(d)).AddConst(-1))
	}
	pieces, err := b.CountSymbolic()
	if err != nil {
		t.Fatal(err)
	}
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d", len(pieces))
	}
	if s := pieces[0].Count.Format([]string{"N"}); s != "N^3" {
		t.Fatalf("formula = %q", s)
	}
}

func TestSymbolicRejectsExistentialApprox(t *testing.T) {
	// A set whose existential cannot be eliminated exactly must error
	// rather than return a wrong formula.
	sp := NewSetSpace([]string{"N"}, []string{"i"})
	b := Universe(sp)
	b.AddRange(0, 0, 31)
	q := b.AddExists(1)
	row := make([]int64, b.Sp.NumCols()+1)
	row[sp.NumParams()] = 1 // i
	row[q] = -3             // i = 3q -> multiples of 3
	b.AddRawEQ(row, 0)
	if _, err := b.CountSymbolic(); err == nil {
		t.Fatal("expected ErrNotCountable for modulo set")
	}
}
