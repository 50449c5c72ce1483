package interp

import (
	"slices"
	"testing"

	"polyufc/internal/ir"
)

// digestCase builds one small nest over the arrays A (8 x 8) and B (8).
type digestCase func(A, B *ir.Array) *ir.Nest

func load(a *ir.Array, idx ...ir.AffExpr) *ir.Statement {
	return &ir.Statement{Name: "S", Flops: 1, Accesses: []ir.Access{{Array: a, Index: idx}}}
}

func loop(iv string, lo, hi int64, body ...ir.Node) *ir.Loop {
	return ir.SimpleLoop(iv, ir.AffConst(lo), ir.AffConst(hi), body...)
}

func nestOf(root *ir.Loop) *ir.Nest { return &ir.Nest{Label: "n", Root: root} }

// Nests with the same trace share a digest however their loops are
// spelled, and nests whose traces differ do not; each pair that shares a
// digest is also checked to make the same accesses.
func TestDigestFoldsLoopsThatRunOnce(t *testing.T) {
	i, j, t0 := ir.AffVar("i"), ir.AffVar("j"), ir.AffVar("t")
	// row2 reads A[2][j] for j in 0..7, spelled six ways.
	row2 := map[string]digestCase{
		"plain": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("j", 0, 7, load(A, ir.AffConst(2), j)))
		},
		"under a loop that runs once": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("i", 2, 2, loop("j", 0, 7, load(A, i, j))))
		},
		"renamed": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("x", 2, 2, loop("y", 0, 7, load(A, ir.AffVar("x"), ir.AffVar("y")))))
		},
		"tile loop that runs once": func(A, _ *ir.Array) *ir.Nest {
			// for t in 0..floor(7/16): for j in max(0, 16t)..min(7, 16t+15)
			inner := &ir.Loop{IV: "j",
				Lo:   []ir.Bound{ir.BExpr(ir.AffConst(0)), ir.BExpr(t0.Scale(16))},
				Hi:   []ir.Bound{ir.BExpr(ir.AffConst(7)), ir.BExpr(t0.Scale(16).AddConst(15))},
				Body: []ir.Node{load(A, ir.AffConst(2), j)}}
			return nestOf(&ir.Loop{IV: "t", Lo: []ir.Bound{ir.BExpr(ir.AffConst(0))},
				Hi: []ir.Bound{ir.BDiv(ir.AffConst(7), 16)}, Body: []ir.Node{inner}})
		},
		"constant bounds collapsed": func(A, _ *ir.Array) *ir.Nest {
			l := loop("j", 0, 7, load(A, ir.AffConst(2), j))
			l.Lo = append(l.Lo, ir.BExpr(ir.AffConst(-3)))
			l.Hi = append(l.Hi, ir.BDiv(ir.AffConst(17), 2))
			return nestOf(l)
		},
		"inner loop marked parallel": func(A, _ *ir.Array) *ir.Nest {
			l := loop("j", 0, 7, load(A, i, j))
			l.Parallel = true
			return nestOf(loop("i", 2, 2, l))
		},
	}
	// Each of these differs from row2, and from every other, in its trace
	// or in its Parallel flag.
	apart := map[string]digestCase{
		"row 3": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("i", 3, 3, loop("j", 0, 7, load(A, i, j))))
		},
		"rows 2 and 3": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("i", 2, 3, loop("j", 0, 7, load(A, i, j))))
		},
		"column 2": func(A, _ *ir.Array) *ir.Nest {
			return nestOf(loop("i", 2, 2, loop("j", 0, 7, load(A, j, i))))
		},
		"outer loop parallel": func(A, _ *ir.Array) *ir.Nest {
			l := loop("j", 0, 7, load(A, ir.AffConst(2), j))
			l.Parallel = true
			return nestOf(l)
		},
		"zero-trip loop first": func(A, B *ir.Array) *ir.Nest {
			return nestOf(loop("i", 2, 2, loop("k", 1, 0, load(B, ir.AffConst(0))), loop("j", 0, 7, load(A, i, j))))
		},
	}
	digest := func(c digestCase) (string, *ir.Nest) {
		A, B := ir.NewArray("A", 8, 8, 8), ir.NewArray("B", 8, 8)
		n := c(A, B)
		return DigestOf(n), n
	}
	want, ref := digest(row2["plain"])
	for name, c := range row2 {
		got, n := digest(c)
		if got != want {
			t.Errorf("%s: digest differs from the plain spelling", name)
		}
		if !slices.Equal(addrs(t, n), addrs(t, ref)) {
			t.Errorf("%s: trace differs from the plain spelling", name)
		}
	}
	seen := map[string]string{want: "row 2"}
	for name, c := range apart {
		got, _ := digest(c)
		if other, dup := seen[got]; dup {
			t.Errorf("%s shares a digest with %s", name, other)
		}
		seen[got] = name
	}
}

// addrs records the addresses a run of n reads and writes, in order.
func addrs(t *testing.T, n *ir.Nest) []int64 {
	var out []int64
	if _, err := RunNest(n, TracerFunc(func(addr, _ int64, _ bool) { out = append(out, addr) })); err != nil {
		t.Fatal(err)
	}
	return out
}
