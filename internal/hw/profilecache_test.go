package hw

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"polyufc/internal/ir"
)

// keyVariant describes one small nest, an in-place update; each field is
// one thing a profile key must tell apart.
type keyVariant struct {
	storeFirst bool  // the update stores A before it loads it
	elem       int64 // A's element size
	cols       int64 // A's inner extent
	div        int64 // the outer loop's upper-bound divisor
	parallel   bool  // the outer loop's Parallel flag
	label      string
}

var baseVariant = keyVariant{elem: 8, cols: 16, div: 2, label: "n"}

// keyNest builds the nest a variant describes, every node freshly.
func keyNest(v keyVariant) *ir.Nest {
	A := ir.NewArray("A", v.elem, 16, v.cols)
	B := ir.NewArray("B", 8, 16, 16)
	i, j := ir.AffVar("i"), ir.AffVar("j")
	// A[i][j] = f(B[j][i], A[i][j]): the update's load and store differ
	// in direction alone.
	loadB := ir.Access{Array: B, Index: []ir.AffExpr{j, i}}
	load := ir.Access{Array: A, Index: []ir.AffExpr{i, j}}
	store := ir.Access{Array: A, Write: true, Index: []ir.AffExpr{i, j}}
	acc := []ir.Access{loadB, load, store}
	if v.storeFirst {
		acc = []ir.Access{loadB, store, load}
	}
	stmt := &ir.Statement{Name: "S", Flops: 1, Accesses: acc}
	return &ir.Nest{Label: v.label, Root: &ir.Loop{
		IV:       "i",
		Lo:       []ir.Bound{ir.BExpr(ir.AffConst(0))},
		Hi:       []ir.Bound{ir.BDiv(ir.AffConst(31), v.div)},
		Parallel: v.parallel,
		Body:     []ir.Node{ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(15), stmt)},
	}}
}

// Nests that differ in anything the simulation reads, or in the label the
// profile carries, are simulated apart; a freshly built identical nest is
// answered from the cache.
func TestProfileKeyTellsNestsApart(t *testing.T) {
	variants := map[string]keyVariant{"base": baseVariant}
	for name, edit := range map[string]func(*keyVariant){
		"store before load": func(v *keyVariant) { v.storeFirst = true },
		"element size":      func(v *keyVariant) { v.elem = 4 },
		"shape":             func(v *keyVariant) { v.cols = 17 },
		"bound divisor":     func(v *keyVariant) { v.div = 3 },
		"parallel":          func(v *keyVariant) { v.parallel = true },
		"label":             func(v *keyVariant) { v.label = "m" },
	} {
		v := baseVariant
		edit(&v)
		variants[name] = v
	}
	var cache ProfileCache
	p := RPL()
	profiles := map[string]*CacheProfile{}
	for name, v := range variants {
		prof, err := cache.profile(keyNest(v), p)
		if err != nil {
			t.Fatal(err)
		}
		profiles[name] = prof
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(variants)) {
		t.Fatalf("%d variants: %d hits, %d misses; every variant must simulate once", len(variants), hits, misses)
	}
	again, err := cache.profile(keyNest(baseVariant), p)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); again != profiles["base"] || hits != 1 || misses != int64(len(variants)) {
		t.Fatalf("a freshly built identical nest: %d hits, %d misses, same profile %v", hits, misses, again == profiles["base"])
	}
	if profiles["label"].Label != "m" || profiles["base"].Label != "n" {
		t.Fatal("a profile carries another nest's label")
	}
	if !profiles["parallel"].HasParallel || profiles["base"].HasParallel {
		t.Fatal("a profile carries another nest's parallel flag")
	}
}

// Every profile of the golden grid, asked of one bounded cache over two
// compilations in shuffled order — so every nest is a fresh pointer, some
// answers are hits on another compile's nest and eviction runs — equals
// the golden.
func TestProfileCacheHitsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel x platform x tile grid, twice")
	}
	data, err := os.ReadFile(profilesGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]*goldenProfile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	type ask struct {
		key  string
		nest *ir.Nest
		plat *Platform
	}
	var asks []ask
	for range 2 {
		eachTiledNest(t, func(key string, nest *ir.Nest) {
			for _, p := range []*Platform{BDW(), RPL()} {
				asks = append(asks, ask{key + "/" + p.Name, nest, p})
			}
		})
	}
	rand.New(rand.NewSource(1)).Shuffle(len(asks), func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
	var cache ProfileCache
	cache.SetLimit(len(want) / 4)
	for _, a := range asks {
		prof, err := cache.profile(a.nest, a.plat)
		if err != nil {
			t.Fatalf("%s: %v", a.key, err)
		}
		if got := projectGolden(prof); !reflect.DeepEqual(got, want[a.key]) {
			t.Fatalf("%s:\n got %+v\nwant %+v", a.key, got, want[a.key])
		}
	}
	c := cache.Counters()
	if c.Hits == 0 || c.Evictions == 0 {
		t.Fatalf("%d asks: %d hits, %d evictions; the replay must hit and evict", len(asks), c.Hits, c.Evictions)
	}
	t.Logf("%d asks of %d golden profiles: %d hits, %d misses, %d evictions", len(asks), len(want), c.Hits, c.Misses, c.Evictions)
}
