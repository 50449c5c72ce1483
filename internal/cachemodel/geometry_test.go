package cachemodel

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/pluto"
)

// shippedHierarchies returns the first socket of every description the repo
// ships — the two embedded paper machines and the platforms/*.json files:
// its cache hierarchy and the thread count a parallel nest is modeled at.
func shippedHierarchies(t testing.TB) map[string]*platform.Socket {
	out := map[string]*platform.Socket{"bdw": &backend(t, "BDW").Sockets[0], "rpl": &backend(t, "RPL").Sockets[0]}
	files, err := filepath.Glob("../../platforms/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no shipped platform descriptions: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := platform.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = &b.Sockets[0]
	}
	return out
}

// One Geometry, measured once under the default options, evaluated against
// every shipped hierarchy under every option Evaluate reads, is Analyze on
// that hierarchy with those options: the counting carries nothing of the
// machine but the line size, and nothing of Threads or FullyAssoc. (The
// values themselves are pinned by analyze.golden.json; this test pins the
// sharing.) Mutation-checked: a Measure that folds opts.Threads into its
// instance counts fails here.
func TestOneGeometryServesEveryHierarchy(t *testing.T) {
	hierarchies := shippedHierarchies(t)
	kernels := []string{"gemm", "2mm", "lu", "jacobi-2d", "trisolv", "conv2d-alexnet"}
	if testing.Short() {
		kernels = kernels[:2]
	}
	for _, kernel := range kernels {
		for _, tile := range []int64{4, 32} {
			popts := pluto.DefaultOptions()
			popts.TileSize = tile
			eachTiledNest(t, kernel, popts, func(label string, nest *ir.Nest) {
				geoms := map[int64]*Geometry{} // by line size
				for name, s := range hierarchies {
					cache := s.CacheConfig()
					line := cache.Levels[0].LineSize
					if geoms[line] == nil {
						g, err := Measure(nest, line)
						if err != nil {
							t.Fatalf("%s/%s tile %d: %v", kernel, label, tile, err)
						}
						geoms[line] = g
					}
					for _, mod := range []func(*Options){
						func(*Options) {},
						func(o *Options) { o.FullyAssoc = true },
						func(o *Options) { o.Threads = s.Threads },
						func(o *Options) { o.Threads, o.FullyAssoc = 3, true },
					} {
						opts := DefaultOptions()
						mod(&opts)
						want, err := Analyze(nest, cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := geoms[line].Evaluate(cache, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s tile %d on %s %+v:\n got %+v\nwant %+v", kernel, label, tile, name, opts, got, want)
						}
					}
				}
			})
		}
	}
}

// A geometry counts lines of one size; a hierarchy with another line size
// is refused, not silently mis-evaluated.
func TestEvaluateRejectsOtherLineSize(t *testing.T) {
	eachTiledNest(t, "gemm", pluto.DefaultOptions(), func(_ string, nest *ir.Nest) {
		g, err := Measure(nest, 128)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Evaluate(backend(t, "BDW").Sockets[0].CacheConfig(), DefaultOptions()); err == nil || !strings.Contains(err.Error(), "line size") {
			t.Fatalf("a 128-byte geometry evaluated on a 64-byte hierarchy: err = %v", err)
		}
		wide := backend(t, "BDW").Sockets[0].CacheConfig()
		for i := range wide.Levels {
			wide.Levels[i].LineSize = 128
		}
		got, err := g.Evaluate(wide, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(nest, wide, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("128-byte line:\n got %+v\nwant %+v", got, want)
		}
	})
	if _, err := Measure(&ir.Nest{}, 0); err == nil {
		t.Fatal("Measure accepted a zero line size")
	}
}
