package ir

import (
	"strings"
	"testing"
)

func TestArrayBasics(t *testing.T) {
	a := NewArray("A", 8, 4, 5, 6)
	if a.NumElems() != 120 {
		t.Fatalf("NumElems = %d", a.NumElems())
	}
	if a.SizeBytes() != 960 {
		t.Fatalf("SizeBytes = %d", a.SizeBytes())
	}
	s := a.Strides()
	if s[0] != 30 || s[1] != 6 || s[2] != 1 {
		t.Fatalf("Strides = %v", s)
	}
}

func TestAffExprArith(t *testing.T) {
	e := AffVar("i").Scale(2).Add(AffTerm(3, "j")).AddConst(-1)
	env := map[string]int64{"i": 4, "j": 5}
	if got := e.Eval(env); got != 2*4+3*5-1 {
		t.Fatalf("Eval = %d", got)
	}
	if e.String() != "2*i + 3*j - 1" {
		t.Fatalf("String = %q", e.String())
	}
	z := AffVar("i").Add(AffTerm(-1, "i"))
	if !z.IsConst() {
		t.Fatalf("cancellation failed: %v", z)
	}
}

// buildMatmulNest constructs a plain i,j,k matmul nest for tests.
func buildMatmulNest(m, n, k int64) (*Nest, *Array, *Array, *Array) {
	A := NewArray("A", 8, m, k)
	B := NewArray("B", 8, k, n)
	C := NewArray("C", 8, m, n)
	stmt := &Statement{Name: "S0", Flops: 2}
	i, j, kk := AffVar("i"), AffVar("j"), AffVar("k")
	stmt.Accesses = []Access{
		{Array: A, Index: []AffExpr{i, kk}},
		{Array: B, Index: []AffExpr{kk, j}},
		{Array: C, Index: []AffExpr{i, j}},
		{Array: C, Write: true, Index: []AffExpr{i, j}},
	}
	kl := SimpleLoop("k", AffConst(0), AffConst(k-1), stmt)
	jl := SimpleLoop("j", AffConst(0), AffConst(n-1), kl)
	il := SimpleLoop("i", AffConst(0), AffConst(m-1), jl)
	return &Nest{Label: "matmul", Root: il}, A, B, C
}

func TestNestStatementsAndDomain(t *testing.T) {
	nest, _, _, _ := buildMatmulNest(10, 20, 30)
	sts := nest.Statements()
	if len(sts) != 1 {
		t.Fatalf("statements = %d", len(sts))
	}
	si := sts[0]
	if got := si.IVNames(); len(got) != 3 || got[0] != "i" || got[2] != "k" {
		t.Fatalf("IVs = %v", got)
	}
	n, err := si.Domain.Count(1 << 20)
	if err != nil || n != 10*20*30 {
		t.Fatalf("domain count = %d (%v)", n, err)
	}
}

func TestNestFlopsAndTripCount(t *testing.T) {
	nest, _, _, _ := buildMatmulNest(8, 8, 8)
	tc, err := nest.TripCount()
	if err != nil || tc != 512 {
		t.Fatalf("TripCount = %d (%v)", tc, err)
	}
	fl, err := nest.Flops()
	if err != nil || fl != 1024 {
		t.Fatalf("Flops = %d (%v)", fl, err)
	}
}

func TestWalkLoopsDepth(t *testing.T) {
	nest, _, _, _ := buildMatmulNest(4, 4, 4)
	var depths []int
	nest.WalkLoops(func(l *Loop, d int) { depths = append(depths, d) })
	if len(depths) != 3 || depths[0] != 0 || depths[2] != 2 {
		t.Fatalf("depths = %v", depths)
	}
}

func TestOperandsDistinct(t *testing.T) {
	nest, A, B, C := buildMatmulNest(4, 4, 4)
	ops := nest.Operands()
	if len(ops) != 3 {
		t.Fatalf("operands = %d", len(ops))
	}
	want := map[*Array]bool{A: true, B: true, C: true}
	for _, a := range ops {
		if !want[a] {
			t.Fatalf("unexpected operand %s", a.Name)
		}
	}
}

func TestPrintModule(t *testing.T) {
	mod, f := NewModule("test")
	nest, _, _, _ := buildMatmulNest(4, 4, 4)
	f.Ops = append(f.Ops, &SetUncoreCap{GHz: 1.2, Level: DialectLinalg, From: "x"}, nest)
	s := mod.Print()
	for _, want := range []string{"module @test", "func.func @test", "polyufc.set_uncore_cap", "affine.for %i", "affine.load"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Print missing %q in:\n%s", want, s)
		}
	}
}

func TestDialectStrings(t *testing.T) {
	if DialectTorch.String() != "torch" || DialectLinalg.String() != "linalg" || DialectAffine.String() != "affine" {
		t.Fatal("dialect names wrong")
	}
}

func TestLoopWithMinMaxBounds(t *testing.T) {
	// i in [max(0, 2), min(9, 5)] -> 4 iterations (2..5).
	stmt := &Statement{Name: "S", Flops: 1}
	l := &Loop{
		IV:   "i",
		Lo:   []Bound{BExpr(AffConst(0)), BExpr(AffConst(2))},
		Hi:   []Bound{BExpr(AffConst(9)), BExpr(AffConst(5))},
		Body: []Node{stmt},
	}
	nest := &Nest{Root: l}
	tc, err := nest.TripCount()
	if err != nil || tc != 4 {
		t.Fatalf("TripCount = %d (%v)", tc, err)
	}
}

// ParseDialect inverts String on every level, defaults the empty string
// to linalg and refuses anything else.
func TestParseDialect(t *testing.T) {
	for _, d := range []Dialect{DialectTorch, DialectLinalg, DialectAffine} {
		if got, ok := ParseDialect(d.String()); !ok || got != d {
			t.Errorf("ParseDialect(%q) = %v, %v", d.String(), got, ok)
		}
	}
	if got, ok := ParseDialect(""); !ok || got != DialectLinalg {
		t.Errorf(`ParseDialect("") = %v, %v; want linalg`, got, ok)
	}
	if _, ok := ParseDialect("mlir"); ok {
		t.Error("ParseDialect accepted an unknown level")
	}
}
