package hw

import (
	"reflect"
	"testing"

	"polyufc/internal/interp"
	"polyufc/internal/ir"
)

// raceEnabled is set when the race detector is on: it makes the
// single-goroutine trace comparison below some fifteen times slower and can
// find nothing in it.
var raceEnabled bool

// measuredTiles are the tile sizes the measured-search benchmark requests:
// pluto:size=4, 6, ..., 130.
func measuredTiles() []int64 {
	var out []int64
	for t := int64(4); t <= 130; t += 2 {
		out = append(out, t)
	}
	return out
}

// traceOf hashes the address trace a run of nest makes, every access's
// address, size and direction in order, with the run's counts (FNV-1a over
// the values rather than their bytes).
func traceOf(t *testing.T, nest *ir.Nest) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) { h = (h ^ uint64(v)) * 1099511628211 }
	st, err := interp.RunNest(nest, interp.TracerFunc(func(addr, size int64, write bool) {
		mix(addr)
		mix(size)
		if write {
			mix(1)
		}
		mix(0)
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{st.Instances, st.Flops, st.Loads, st.Stores} {
		mix(v)
	}
	return h
}

// spelling identifies a nest as written: its printed loops, accesses and
// arrays (with extents and element sizes) and its label.
func spelling(nest *ir.Nest) string {
	return (&ir.Module{Funcs: []*ir.Func{{Ops: []ir.Op{nest}}}}).Print()
}

// Over every nest a measured search profiles — each kernel at test size
// under every tile size the benchmark requests — nests with equal digests
// make the same address trace and have the same profile on both
// platforms, whatever their loops are spelled like: a tile loop that runs
// once is folded away.
func TestProfileKeyFoldsLoopsThatRunOnce(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("37 kernels x 64 tile sizes, every access traced")
	}
	type member struct {
		key  string
		nest *ir.Nest
	}
	groups := map[string][]member{} // digest -> nests spelled apart
	spelled := map[string]bool{}
	nests := 0
	eachTiledNestAt(t, measuredTiles(), func(key string, nest *ir.Nest) {
		nests++
		if s := spelling(nest); !spelled[s] {
			spelled[s] = true
			d := interp.DigestOf(nest)
			groups[d] = append(groups[d], member{key, nest})
		}
	})
	plats := []*Platform{BDW(), RPL()}
	profile := func(nest *ir.Nest, p *Platform) *CacheProfile {
		prof, err := ProfileNest(nest, p.Cache)
		if err != nil {
			t.Fatal(err)
		}
		prof.Label = ""
		return prof
	}
	folded := 0
	for _, g := range groups {
		if len(g) == 1 {
			continue
		}
		folded += len(g) - 1
		first := g[0]
		trace := traceOf(t, first.nest)
		var want []*CacheProfile
		for _, p := range plats {
			want = append(want, profile(first.nest, p))
		}
		for _, m := range g[1:] {
			if got := traceOf(t, m.nest); got != trace {
				t.Fatalf("%s and %s share a digest but not an address trace", first.key, m.key)
			}
			for i, p := range plats {
				if got := profile(m.nest, p); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%s and %s share a digest but not a profile on %s:\n got %+v\nwant %+v", first.key, m.key, p.Name, got, want[i])
				}
			}
		}
	}
	if folded == 0 {
		t.Fatal("no two spellings share a digest: nothing was folded")
	}
	t.Logf("%d nests, %d spellings, %d digests: %d spellings share another's digest", nests, len(spelled), len(groups), folded)
}
