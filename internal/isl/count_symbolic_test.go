package isl

import (
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
		if got, ok := EvalPieces(pieces, nm[:]); !ok || got != nm[0]*nm[1] {
			t.Fatalf("count(%v) = %d, %v, want %d", nm, got, ok, nm[0]*nm[1])
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
		if got, ok := EvalPieces(pieces, []int64{n}); !ok || got != n*(n+1)/2 {
			t.Fatalf("count(%d) = %d, %v, want %d", n, got, ok, n*(n+1)/2)
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
		want, err := inst.Count(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := EvalPieces(pieces, []int64{n}); !ok || got != want {
			t.Fatalf("count(%d) = %d, %v, want %d", n, got, ok, want)
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
	if got, ok := EvalPieces(pieces, []int64{3}); !ok || got != 0 {
		t.Fatalf("count(3) = %d, %v, want 0", got, ok)
	}
	if got, ok := EvalPieces(pieces, []int64{12}); !ok || got != 7 {
		t.Fatalf("count(12) = %d, %v, want 7", got, ok)
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
