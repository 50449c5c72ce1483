package isl_test

import (
	"fmt"

	"polyufc/internal/isl"
)

// ExampleSet_Count counts a tiled iteration domain exactly.
func ExampleSet_Count() {
	// {[t, i] : 0 <= i < 100, 32t <= i <= 32t+31, t >= 0}: the tiled form
	// of a 100-iteration loop.
	sp := isl.NewSetSpace(nil, []string{"t", "i"})
	b := isl.Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.VarExpr(1))
	b.AddGE(sp.ConstExpr(99).Sub(sp.VarExpr(1)))
	b.AddGE(sp.VarExpr(1).Sub(sp.VarExpr(0).Scale(32)))
	b.AddGE(sp.VarExpr(0).Scale(32).AddConst(31).Sub(sp.VarExpr(1)))
	n, err := isl.FromBasic(b).Count(1 << 20)
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 100
}

// ExampleBasicSet_CountSymbolic derives a parametric cardinality formula.
func ExampleBasicSet_CountSymbolic() {
	// The triangular domain {[i,j] : 0 <= i < N, 0 <= j <= i}.
	sp := isl.NewSetSpace([]string{"N"}, []string{"i", "j"})
	b := isl.Universe(sp)
	b.AddGE(sp.VarExpr(0))
	b.AddGE(sp.ParamExpr(0).Sub(sp.VarExpr(0)).AddConst(-1))
	b.AddGE(sp.VarExpr(1))
	b.AddGE(sp.VarExpr(0).Sub(sp.VarExpr(1)))
	pieces, err := b.CountSymbolic()
	if err != nil {
		panic(err)
	}
	fmt.Println(pieces[0].Count.Format([]string{"N"}))
	// Output: 1/2*N^2 + 1/2*N
}
