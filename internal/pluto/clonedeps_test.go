package pluto

import (
	"reflect"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/workloads"
)

// A DepInfo describes a nest's structure, not its identity: Transform given
// the analysis of a clone of the module yields — and prints — the nest
// Optimize yields analysing the nest itself. core's dependence stage relies
// on it: the analysis is memoized in a stage snapshot and every later
// compile of the kernel tiles its own clone of the module with it.
func TestTransformTakesDepsOfAClone(t *testing.T) {
	print := func(n *ir.Nest) string {
		mod, f := ir.NewModule("m")
		f.Ops = []ir.Op{n}
		return mod.Print()
	}
	for _, k := range workloads.All() {
		mod, err := k.BuildAffine(workloads.Test)
		if err != nil {
			t.Fatal(err)
		}
		clone := mod.Clone()
		for fi, f := range mod.Funcs {
			for oi, op := range f.Ops {
				nest, ok := op.(*ir.Nest)
				if !ok {
					continue
				}
				info, err := Analyze(clone.Funcs[fi].Ops[oi].(*ir.Nest))
				if err != nil {
					info = nil // outside the class: Transform passes the nest through
				}
				for _, size := range []int64{4, 32} {
					opts := DefaultOptions()
					opts.TileSize = size
					want, err := Optimize(nest, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", k.Name, nest.Label, err)
					}
					got, err := Transform(nest, info, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", k.Name, nest.Label, err)
					}
					if g, w := print(got.Nest), print(want.Nest); g != w {
						t.Fatalf("%s/%s tile %d: Transform with a clone's deps printed\n%s\nOptimize printed\n%s", k.Name, nest.Label, size, g, w)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s tile %d: results differ beyond the printed nest:\n got %+v\nwant %+v", k.Name, nest.Label, size, got, want)
					}
				}
			}
		}
	}
}
