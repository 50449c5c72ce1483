package ir

import (
	"reflect"
	"testing"
)

// buildCloneFixture assembles a module exercising every dialect: torch
// ops, linalg ops, an affine nest with nested loops, bounds with divisors,
// a cap node, and shared arrays.
func buildCloneFixture() *Module {
	a := NewArray("A", 8, 16, 16)
	b := NewArray("B", 8, 16, 16)
	o := NewArray("O", 8, 16, 16)
	mod, f := NewModule("fixture")

	mm := NewTorchMatMul(a, b, o)
	sdpa := NewTorchSDPA(a, b, o, o)
	lin := NewLinalgMatmul(a, b, o)
	lin.SetOrigin("torch.matmul")

	s := &Statement{Name: "S0", Flops: 2, Accesses: []Access{
		{Array: a, Index: []AffExpr{AffVar("i"), AffVar("k")}},
		{Array: b, Index: []AffExpr{AffVar("k"), AffVar("j")}},
		{Array: o, Write: true, Index: []AffExpr{AffVar("i"), AffVar("j")}},
	}}
	inner := &Loop{IV: "k", Lo: []Bound{BExpr(AffConst(0))},
		Hi: []Bound{BDiv(AffVar("i"), 4), BExpr(AffConst(15))}, Body: []Node{s}}
	mid := SimpleLoop("j", AffConst(0), AffConst(15), inner,
		&CapNode{Cap: &SetUncoreCap{GHz: 1.2, Level: DialectAffine, From: "S0"}})
	root := SimpleLoop("i", AffConst(0), AffConst(15), mid)
	root.Parallel = true
	nest := &Nest{Label: "matmul0", Root: root}
	nest.SetOrigin("torch.matmul/linalg.matmul")

	f.Ops = []Op{mm, sdpa, lin, &SetUncoreCap{GHz: 2.0, Level: DialectLinalg, From: "mm"}, nest}
	return mod
}

func TestCloneDeepEqual(t *testing.T) {
	m := buildCloneFixture()
	c := m.Clone()
	if !reflect.DeepEqual(m, c) {
		t.Fatal("clone is not deep-equal to the original")
	}
}

func TestCloneSharesNothingMutable(t *testing.T) {
	m := buildCloneFixture()
	c := m.Clone()
	if m.Funcs[0] == c.Funcs[0] {
		t.Fatal("funcs shared")
	}
	for i := range m.Funcs[0].Ops {
		if m.Funcs[0].Ops[i] == c.Funcs[0].Ops[i] {
			t.Fatalf("op %d shared", i)
		}
	}
	// Mutating the clone's nest must not reach the original.
	var origNest, cloneNest *Nest
	for _, op := range m.Funcs[0].Ops {
		if n, ok := op.(*Nest); ok {
			origNest = n
		}
	}
	for _, op := range c.Funcs[0].Ops {
		if n, ok := op.(*Nest); ok {
			cloneNest = n
		}
	}
	cloneNest.Root.Hi[0].Expr.Const = 999
	cloneNest.Root.IV = "zz"
	var st *Statement
	cloneNest.WalkStatements(func(s *Statement, _ []*Loop) { st = s })
	st.Accesses[0].Array.Dims[0] = 12345
	st.Accesses[0].Index[0] = AffTerm(7, "i")

	if origNest.Root.Hi[0].Expr.Const == 999 || origNest.Root.IV == "zz" {
		t.Fatal("loop state shared with clone")
	}
	var ost *Statement
	origNest.WalkStatements(func(s *Statement, _ []*Loop) { ost = s })
	if ost.Accesses[0].Array.Dims[0] == 12345 {
		t.Fatal("arrays shared with clone")
	}
	if ost.Accesses[0].Index[0].Coeff("i") == 7 {
		t.Fatal("index slices shared with clone")
	}
}

func TestCloneRetainsArrayIdentity(t *testing.T) {
	m := buildCloneFixture()
	c := m.Clone()
	// The torch.matmul's A and the nest statement's first access alias the
	// same array in the original; the clone must preserve that aliasing.
	mm := c.Funcs[0].Ops[0].(*TorchMatMul)
	var nest *Nest
	for _, op := range c.Funcs[0].Ops {
		if n, ok := op.(*Nest); ok {
			nest = n
		}
	}
	var st *Statement
	nest.WalkStatements(func(s *Statement, _ []*Loop) { st = s })
	if mm.A != st.Accesses[0].Array {
		t.Fatal("array aliasing lost in clone")
	}
	if mm.A != mm.Operands()[0] {
		t.Fatal("op struct fields and Operands() diverged in clone")
	}
	// Distinct originals stay distinct.
	if mm.A == mm.B {
		t.Fatal("distinct arrays merged")
	}
}

func TestCloneNilAndEmpty(t *testing.T) {
	var m *Module
	if m.Clone() != nil {
		t.Fatal("nil module clone")
	}
	empty, _ := NewModule("empty")
	c := empty.Clone()
	if !reflect.DeepEqual(empty, c) {
		t.Fatal("empty module clone differs")
	}
	var n *Nest
	if n.Clone() != nil {
		t.Fatal("nil nest clone")
	}
}
