package isl

import "testing"

// wrappingSystem is {(y, x) : a*x + 2^31*y - 1 >= 0, -b*x + 2^31*y >= 0}
// with a = 2^32+1 and b = 2^32-1. Eliminating x combines the rows into
// (b*2^31 + a*2^31)*y - b >= 0; the coefficient is exactly 2^64, which
// wraps to 0 in int64 arithmetic and leaves the false constant row -b >= 0.
// The set is not empty: y = 1, x = 0 is in it.
func wrappingSystem() BasicSet {
	b := Universe(NewSetSpace(nil, []string{"y", "x"}))
	b.AddRawGE([]int64{1 << 31, 1<<32 + 1}, -1)
	b.AddRawGE([]int64{1 << 31, -(1<<32 - 1)}, 0)
	return b
}

// TestFourierMotzkinOverflowIsSound is the regression test for the silent
// int64 wrap in Fourier-Motzkin: a combined coefficient that does not fit
// must not turn a non-empty set into an empty one, and the projection that
// lost the row must say it is not exact.
func TestFourierMotzkinOverflowIsSound(t *testing.T) {
	b := wrappingSystem()
	if !b.EvalPoint(nil, []int64{1, 0}) {
		t.Fatal("(1, 0) should satisfy the system")
	}
	if b.IsEmptyRational() {
		t.Error("IsEmptyRational claims a set containing (1, 0) is empty")
	}
	proj, exact := b.ProjectOutVar(1)
	if exact {
		t.Error("projection that dropped an overflowing row reported exact")
	}
	if !proj.EvalPoint(nil, []int64{1}) {
		t.Errorf("projection onto y lost y = 1: %s", proj)
	}
	// The same rows behind an existential: x becomes the quantified column.
	e := Universe(NewSetSpace(nil, []string{"y"}))
	q := e.AddExists(1)
	for _, c := range b.Constraints() {
		row := make([]int64, 2)
		row[0], row[q] = c.Coef[0], c.Coef[1]
		e.AddRawGE(row, c.Const)
	}
	if elim, exact := e.EliminateExists(); exact || elim.IsEmptyRational() {
		t.Errorf("EliminateExists = %s, exact %v; want a non-empty inexact projection", elim, exact)
	}
}

// TestFourierMotzkinDropsDominatedRows pins what keeps the systems small:
// of inequalities with equal coefficients only the tightest survives an
// elimination, and contradictory equalities are decided at once.
func TestFourierMotzkinDropsDominatedRows(t *testing.T) {
	var s sys
	s.load(2, []con{
		{kind: GE, coef: []int64{1, 1}, c: 5},
		{kind: GE, coef: []int64{2, 2}, c: 7}, // x + y + 3 >= 0 after tightening: tighter
		{kind: GE, coef: []int64{1, 1}, c: 9},
		{kind: GE, coef: []int64{0, 0}, c: 4}, // trivially true
	})
	if len(s.eq) != 1 || s.row(0)[2] != 3 || s.empty {
		t.Fatalf("rows = %v (empty %v), want the single row x + y + 3 >= 0", s.a, s.empty)
	}
	s.load(1, []con{{kind: EQ, coef: []int64{1}, c: -2}, {kind: EQ, coef: []int64{1}, c: -3}})
	if !s.empty {
		t.Fatal("x = 2 and x = 3 not recognized as contradictory")
	}
}
