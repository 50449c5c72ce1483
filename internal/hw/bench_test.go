package hw

import (
	"fmt"
	"strings"
	"testing"

	"polyufc/internal/ir"
)

// benchProfileNest times the exact simulation of one kernel's Pluto-tiled
// nests at test size on the RPL hierarchy — the measured path of one
// /v1/search — at the benchmark's smallest tile, at Pluto's default and at
// the golden grid's largest, which leaves test-size loops untiled.
func benchProfileNest(b *testing.B, kernel string) {
	for _, tile := range goldenTiles {
		var nests []*ir.Nest
		suffix := fmt.Sprintf("/%d", tile)
		eachTiledNest(b, func(key string, nest *ir.Nest) {
			if strings.HasPrefix(key, kernel+"/") && strings.HasSuffix(key, suffix) {
				nests = append(nests, nest)
			}
		})
		if len(nests) == 0 {
			b.Fatalf("no nests for %s", kernel)
		}
		cache := RPL().Cache
		b.Run(fmt.Sprintf("tile%d", tile), func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for n := 0; n < b.N; n++ {
				for _, nest := range nests {
					p, err := ProfileNest(nest, cache)
					if err != nil {
						b.Fatal(err)
					}
					accesses += p.Loads + p.Stores
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}

// One benchmark per leaf shape: lm-head's trip-4 leaves at tile 4, the
// 1x1 convolution's trip-1 leaves, the 2x2 one's trip-2 leaves, the 11x11
// one's trip-11 leaves, and gemm's unit-stride ones.
func BenchmarkProfileNestLmHeadLlama2(b *testing.B)     { benchProfileNest(b, "lm-head-llama2") }
func BenchmarkProfileNestLmHeadGpt2(b *testing.B)       { benchProfileNest(b, "lm-head-gpt2") }
func BenchmarkProfileNestConv2dWideresnet(b *testing.B) { benchProfileNest(b, "conv2d-wideresnet") }
func BenchmarkProfileNestConv2dConvnext(b *testing.B)   { benchProfileNest(b, "conv2d-convnext") }
func BenchmarkProfileNestConv2dAlexnet(b *testing.B)    { benchProfileNest(b, "conv2d-alexnet") }
func BenchmarkProfileNestGemm(b *testing.B)             { benchProfileNest(b, "gemm") }
