package hw

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/profiles.golden.json from the current ProfileNest output")

const profilesGoldenPath = "testdata/profiles.golden.json"

// goldenTiles spans the measured-search benchmark's pluto:size range: the
// smallest and largest tile it requests, and Pluto's default.
var goldenTiles = []int64{4, 32, 130}

// eachTiledNest visits the Pluto-tiled nests of every workload kernel at
// test size over goldenTiles — the nests a measured search profiles.
func eachTiledNest(t testing.TB, visit func(key string, nest *ir.Nest)) {
	eachTiledNestAt(t, goldenTiles, visit)
}

// eachTiledNestAt is eachTiledNest over the given tile sizes.
func eachTiledNestAt(t testing.TB, tiles []int64, visit func(key string, nest *ir.Nest)) {
	for _, k := range workloads.All() {
		mod, err := k.BuildAffine(workloads.Test)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range tiles {
			opts := pluto.DefaultOptions()
			opts.TileSize = tile
			for _, f := range mod.Funcs {
				for _, op := range f.Ops {
					nest, ok := op.(*ir.Nest)
					if !ok {
						continue
					}
					res, err := pluto.Optimize(nest, opts)
					if err != nil {
						t.Fatalf("%s/%s tile %d: %v", k.Name, nest.Label, tile, err)
					}
					visit(fmt.Sprintf("%s/%s/%d", k.Name, nest.Label, tile), res.Nest)
				}
			}
		}
	}
}

// goldenProfile is the shape profiles.golden.json was recorded in, when a
// profile carried its own copies of the counts. The file stays as recorded:
// what it pins is a profile's projection onto this shape (hits as accesses
// minus misses, the LLC's misses, QDRAM as DRAMReadB, the placement). The
// file's DRAMWriteB figures are not in the traffic record — no measurement
// ever read them — so they are not compared, and -update omits them.
type goldenProfile struct {
	Flops, Instances, Loads, Stores int64
	LevelHits, LevelMisses          []int64
	LLCMisses, DRAMReadB            int64
	HasParallel                     bool
	RemoteShare                     float64 `json:",omitempty"`
	Label                           string
}

// projectGolden is a profile in the golden file's shape.
func projectGolden(p *CacheProfile) *goldenProfile {
	g := &goldenProfile{
		Flops: p.Flops, Instances: p.Instances, Loads: p.Loads, Stores: p.Stores,
		LLCMisses: p.LLC().Misses, DRAMReadB: p.QDRAM,
		HasParallel: p.HasParallel, RemoteShare: p.RemoteShare, Label: p.Label,
	}
	for _, lv := range p.Levels {
		g.LevelHits = append(g.LevelHits, lv.Hits())
		g.LevelMisses = append(g.LevelMisses, lv.Misses)
	}
	return g
}

// profilesGolden profiles every tiled nest on the BDW and RPL hierarchies.
func profilesGolden(t testing.TB) map[string]*CacheProfile {
	out := map[string]*CacheProfile{}
	eachTiledNest(t, func(key string, nest *ir.Nest) {
		for _, p := range []*Platform{BDW(), RPL()} {
			prof, err := ProfileNest(nest, p.Cache)
			if err != nil {
				t.Fatalf("%s on %s: %v", key, p.Name, err)
			}
			out[key+"/"+p.Name] = prof
		}
	})
	return out
}

// TestProfilesGolden pins the counts of every profile on the
// measured-search benchmark's kernel x platform x tile-size grid to the
// values the per-access interpreter and the map-and-append simulator
// produced before the running-sum/stream rewrite (the golden was generated
// at that commit).
func TestProfilesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel x platform x tile grid")
	}
	got := map[string]*goldenProfile{}
	for key, prof := range profilesGolden(t) {
		got[key] = projectGolden(prof)
	}
	if *updateGolden {
		// One profile per line, keys sorted, so a regeneration diffs by nest.
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(`},"`), []byte("},\n\""))
		if err := os.WriteFile(profilesGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(profilesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*goldenProfile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("grid has %d profiles, golden %d", len(got), len(want))
	}
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
}
