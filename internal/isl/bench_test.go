package isl_test

import (
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/isl"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

// tiledDomains returns the statement domains of a kernel's nests at bench
// size after Pluto's default transformation: what PolyUFC-CM counts.
func tiledDomains(b *testing.B, kernel string) []isl.Set {
	k, err := workloads.ByName(kernel)
	if err != nil {
		b.Fatal(err)
	}
	mod, err := k.BuildAffine(workloads.Bench)
	if err != nil {
		b.Fatal(err)
	}
	var out []isl.Set
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			nest, ok := op.(*ir.Nest)
			if !ok {
				continue
			}
			res, err := pluto.Optimize(nest, pluto.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for _, si := range res.Nest.Statements() {
				out = append(out, si.Domain)
			}
		}
	}
	return out
}

func benchCount(b *testing.B, kernel string) {
	doms := tiledDomains(b, kernel)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, d := range doms {
			if _, err := d.Count(1 << 22); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCountLu(b *testing.B)       { benchCount(b, "lu") }
func BenchmarkCountCholesky(b *testing.B) { benchCount(b, "cholesky") }
func BenchmarkCountSdpaBert(b *testing.B) { benchCount(b, "sdpa-bert") }
