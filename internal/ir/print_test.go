package ir

import (
	"strings"
	"testing"
)

// TestPrintGolden checks the printed form of a representative module
// against an exact golden text, locking the textual format.
func TestPrintGolden(t *testing.T) {
	A := NewArray("A", 8, 4, 4)
	B := NewArray("B", 8, 4, 4)
	stmt := &Statement{Name: "S0", Flops: 2}
	i, j := AffVar("i"), AffVar("j")
	stmt.Accesses = []Access{
		{Array: A, Index: []AffExpr{i, j}},
		{Array: B, Write: true, Index: []AffExpr{j, i.Scale(2).AddConst(-1)}},
	}
	jl := SimpleLoop("j", AffConst(0), i, stmt)
	jl.Parallel = false
	il := SimpleLoop("i", AffConst(0), AffConst(3), jl)
	il.Parallel = true
	nest := &Nest{Label: "tri", Root: il}
	nest.SetOrigin("torch.test/linalg.generic")

	mod, f := NewModule("golden")
	f.Ops = []Op{&SetUncoreCap{GHz: 1.5, Level: DialectLinalg, From: "tri"}, nest}

	got := mod.Print()
	want := strings.Join([]string{
		"module @golden {",
		"  func.func @golden(%A: memref<4x4xf64>, %B: memref<4x4xf64>) {",
		"    polyufc.set_uncore_cap {ghz = 1.5, for = \"tri\"}",
		"    // affine nest \"tri\" (from torch.test/linalg.generic)",
		"    affine.parallel %i = 0 to 3 {",
		"      affine.for %j = 0 to i {",
		"        %v = affine.load %A[i, j]",
		"        // S0: 2 flops",
		"        affine.store %v, %B[j, 2*i - 1]",
		"      }",
		"    }",
		"  }",
		"}",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrintBoundsWithDiv locks the floordiv rendering used by tiled loops.
func TestPrintBoundsWithDiv(t *testing.T) {
	stmt := &Statement{Name: "S", Flops: 0}
	stmt.Accesses = []Access{{Array: NewArray("X", 8, 64), Write: true, Index: []AffExpr{AffVar("t")}}}
	l := &Loop{
		IV:   "t",
		Lo:   []Bound{BExpr(AffConst(0))},
		Hi:   []Bound{BDiv(AffConst(99), 32), BExpr(AffConst(5))},
		Body: []Node{stmt},
	}
	var sb strings.Builder
	(&printer{w: &sb}).loop(0, l)
	s := sb.String()
	if !strings.Contains(s, "min((99) floordiv 32, 5)") {
		t.Fatalf("bound rendering: %q", s)
	}
}
