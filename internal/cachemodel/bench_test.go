package cachemodel

import (
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

// backend resolves a registered backend description.
func backend(t testing.TB, name string) *platform.Backend {
	b, err := platform.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// eachTiledNest calls visit with every nest of one workload kernel at bench
// size after Pluto's transformation with the given options — what PolyUFC-CM
// analyzes — and the label the nest had before it.
func eachTiledNest(t testing.TB, kernel string, opts pluto.Options, visit func(label string, nest *ir.Nest)) {
	eachTiledNestAt(t, kernel, workloads.Bench, opts, visit)
}

// eachTiledNestAt is eachTiledNest at the given size class.
func eachTiledNestAt(t testing.TB, kernel string, size workloads.SizeClass, opts pluto.Options, visit func(label string, nest *ir.Nest)) {
	k, err := workloads.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.BuildAffine(size)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if nest, ok := op.(*ir.Nest); ok {
				res, err := pluto.Optimize(nest, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", kernel, nest.Label, err)
				}
				visit(nest.Label, res.Nest)
			}
		}
	}
}

// benchAnalyze times PolyUFC-CM over the Pluto-tiled nests of one kernel
// at bench size on the BDW hierarchy: the cachemodel stage of one cold
// compile.
func benchAnalyze(b *testing.B, kernel string) {
	var nests []*ir.Nest
	eachTiledNest(b, kernel, pluto.DefaultOptions(), func(_ string, nest *ir.Nest) { nests = append(nests, nest) })
	cache := backend(b, "BDW").Sockets[0].CacheConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, nest := range nests {
			if _, err := Analyze(nest, cache, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAnalyzeLu(b *testing.B)               { benchAnalyze(b, "lu") }
func BenchmarkAnalyzeLudcmp(b *testing.B)           { benchAnalyze(b, "ludcmp") }
func BenchmarkAnalyzeConv2dWideresnet(b *testing.B) { benchAnalyze(b, "conv2d-wideresnet") }

// benchMeasureTiled times Measure — the counting half of PolyUFC-CM, where
// the prefix counts of every statement domain are taken — over the
// Pluto-tiled nests of one kernel at bench size with tile size 32, the
// separable rectangular domains the block-wise count splits.
func benchMeasureTiled(b *testing.B, kernel string) {
	var nests []*ir.Nest
	eachTiledNest(b, kernel, pluto.Options{TileSize: 32}, func(_ string, nest *ir.Nest) { nests = append(nests, nest) })
	lineSize := backend(b, "BDW").Sockets[0].CacheConfig().Levels[0].LineSize
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, nest := range nests {
			if _, err := Measure(nest, lineSize); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkMeasureTiledSdpaBert(b *testing.B) { benchMeasureTiled(b, "sdpa-bert") }
func BenchmarkMeasureTiled3mm(b *testing.B)      { benchMeasureTiled(b, "3mm") }

// BenchmarkMeasureTiledSeidel is a stencil whose nine reads of one array
// form one reference group: Measure keeps one footprint row for them.
func BenchmarkMeasureTiledSeidel(b *testing.B) { benchMeasureTiled(b, "seidel-2d") }
