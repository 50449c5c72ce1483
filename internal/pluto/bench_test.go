package pluto

import (
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/workloads"
)

// kernelNests returns the affine nests of one workload kernel at bench size.
func kernelNests(t testing.TB, kernel string) []*ir.Nest {
	k, err := workloads.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.BuildAffine(workloads.Bench)
	if err != nil {
		t.Fatal(err)
	}
	var nests []*ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if nest, ok := op.(*ir.Nest); ok {
				nests = append(nests, nest)
			}
		}
	}
	return nests
}

// benchDeps times dependence analysis over every nest of one kernel at
// bench size.
func benchDeps(b *testing.B, kernel string) {
	nests := kernelNests(b, kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, nest := range nests {
			// Imperfect nests are rejected; that is part of the cost.
			_, _ = Analyze(nest)
		}
	}
}

func BenchmarkDepsLu(b *testing.B)     { benchDeps(b, "lu") }
func BenchmarkDepsConv2d(b *testing.B) { benchDeps(b, "conv2d-wideresnet") }
func BenchmarkDepsAdi(b *testing.B)    { benchDeps(b, "adi") }
