package hw

import (
	"fmt"
	"strings"
	"testing"

	"polyufc/internal/ir"
)

// benchProfileNest times the exact simulation of one kernel's Pluto-tiled
// nests at test size on the RPL hierarchy — the measured path of one
// /v1/search — at the benchmark's smallest tile and at Pluto's default.
func benchProfileNest(b *testing.B, kernel string) {
	for _, tile := range []int64{4, 32} {
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

func BenchmarkProfileNestLmHeadLlama2(b *testing.B)     { benchProfileNest(b, "lm-head-llama2") }
func BenchmarkProfileNestConv2dWideresnet(b *testing.B) { benchProfileNest(b, "conv2d-wideresnet") }
func BenchmarkProfileNestGemm(b *testing.B)             { benchProfileNest(b, "gemm") }
