package cachemodel

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analyze.golden.json from the current Analyze output")

const analyzeGoldenPath = "testdata/analyze.golden.json"

// goldenTiles spans the cold-compile benchmark's pluto:size range: the
// smallest and largest tile it requests, and Pluto's default.
var goldenTiles = []int64{4, 32, 130}

// analyzeGolden computes Analyze for every workload nest x {bdw, rpl} x
// goldenTiles at bench size, the way the compile pipeline calls it (a
// parallel nest is modeled with the machine's thread count).
func analyzeGolden(t testing.TB) map[string]*Result {
	out := map[string]*Result{}
	for _, k := range workloads.All() {
		for _, tile := range goldenTiles {
			opts := pluto.DefaultOptions()
			opts.TileSize = tile
			eachTiledNest(t, k.Name, opts, func(label string, nest *ir.Nest) {
				for _, b := range []*platform.Backend{backend(t, "BDW"), backend(t, "RPL")} {
					s := &b.Sockets[0]
					cm := DefaultOptions()
					if nest.Root != nil && nest.Root.Parallel {
						cm.Threads = s.Threads
					}
					res, err := Analyze(nest, s.CacheConfig(), cm)
					if err != nil {
						t.Fatalf("%s/%s tile %d on %s: %v", k.Name, label, tile, b.Name, err)
					}
					out[fmt.Sprintf("%s/%s/%s/%d", k.Name, label, b.Name, tile)] = res
				}
			})
		}
	}
	return out
}

// TestAnalyzeGolden pins every field of every Analyze result on the
// benchmark's kernel x platform x tile-size grid to the values the
// big.Rat/map counting back end produced before the machine-word rewrite
// (the golden was generated at that commit).
func TestAnalyzeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel x platform x tile grid")
	}
	got := analyzeGolden(t)
	if *updateGolden {
		// One result per line, keys sorted, so a regeneration diffs by nest.
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(`},"`), []byte("},\n\""))
		if err := os.WriteFile(analyzeGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(analyzeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("grid has %d results, golden %d", len(got), len(want))
	}
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
}
