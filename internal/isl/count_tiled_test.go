package isl_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/pluto"
)

// randomNest builds a perfect nest of the given depth whose inner loops are
// bounded by constants or by an outer IV plus an offset: rectangles,
// triangles, trapezoids and bands, like the PolyBench solvers.
func randomNest(r *rand.Rand, depth int, maxExtent int64) *ir.Nest {
	ivs := []string{"i", "j", "k"}[:depth]
	stmt := &ir.Statement{Name: "S"}
	var body ir.Node = stmt
	loops := make([]*ir.Loop, depth)
	for d := depth - 1; d >= 0; d-- {
		n := 3 + r.Int63n(maxExtent-2) // deliberately not a tile multiple
		lo, hi := ir.AffConst(r.Int63n(3)), ir.AffConst(n-1)
		if d > 0 {
			outer := ivs[r.Intn(d)]
			switch r.Intn(4) {
			case 0: // lower triangle: iv <= outer + c
				hi = ir.AffVar(outer).AddConst(r.Int63n(3) - 1)
			case 1: // upper triangle: iv >= outer + c
				lo = ir.AffVar(outer).AddConst(r.Int63n(3) - 1)
			case 2: // band around the diagonal
				lo = ir.AffVar(outer).AddConst(-r.Int63n(4))
				hi = ir.AffVar(outer).AddConst(r.Int63n(4))
			}
		}
		loops[d] = &ir.Loop{IV: ivs[d], Lo: []ir.Bound{ir.BExpr(lo)}, Hi: []ir.Bound{ir.BExpr(hi)}, Body: []ir.Node{body}}
		if d > 0 && r.Intn(3) == 0 {
			// A second, constant bound keeps the triangle inside a box.
			loops[d].Lo = append(loops[d].Lo, ir.BExpr(ir.AffConst(0)))
			loops[d].Hi = append(loops[d].Hi, ir.BExpr(ir.AffConst(n-1)))
		}
		body = loops[d]
	}
	return &ir.Nest{Label: "rand", Root: loops[0]}
}

// TestCountMatchesEnumerationOnTiledDomains checks the symbolic count —
// bound pruning, chamber splitting with infeasible chambers skipped,
// Faulhaber summation — against exhaustive enumeration on random small
// triangular and banded domains tiled with sizes across the range the
// daemon accepts, at extents no tile size divides, and on every prefix
// projection PolyUFC-CM derives from them.
func TestCountMatchesEnumerationOnTiledDomains(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tiles := []int64{4, 5, 7, 13, 32, 64, 130}
	iters := 400
	if testing.Short() {
		iters = 50
	}
	symbolic, counted := 0, 0
	for iter := 0; iter < iters; iter++ {
		depth := 2 + r.Intn(2)
		maxExtent := int64(60)
		if depth == 3 {
			maxExtent = 18
		}
		nest := randomNest(r, depth, maxExtent)
		tile := tiles[r.Intn(len(tiles))]
		tiled, err := pluto.TileNest(nest, tile)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []*ir.Nest{nest, tiled} {
			dom := n.Statements()[0].Domain
			what := fmt.Sprintf("iter %d tile %d domain %s", iter, tile, dom)
			for dims := len(dom.Sp.Out); ; dims-- {
				got, err := dom.Count(1 << 22)
				if err != nil {
					t.Fatalf("%s: Count: %v", what, err)
				}
				want, err := dom.CountEnumerate(1 << 22)
				if err != nil {
					t.Fatalf("%s: CountEnumerate: %v", what, err)
				}
				if got != want {
					t.Fatalf("%s: Count = %d, enumeration finds %d", what, got, want)
				}
				counted++
				if _, err := dom.Basics[0].CountSymbolicOnly(); err == nil {
					symbolic++
				}
				if dims == 1 {
					break
				}
				var exact bool
				if dom, exact = dom.ProjectOutVar(dims - 1); !exact {
					break
				}
				what += fmt.Sprintf(" -> %s", dom)
			}
		}
	}
	// Count falls back to enumeration outside the symbolic class; the test
	// is about the symbolic path, so nearly every domain must have taken it.
	if symbolic*10 < counted*9 {
		t.Fatalf("only %d of %d domains were counted symbolically", symbolic, counted)
	}
}

// TestConcurrentCounts counts from several goroutines at once: the
// elimination scratch pool and the Faulhaber coefficient cache are the
// shared state behind Count, and the daemon compiles concurrently.
func TestConcurrentCounts(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	type job struct {
		nest *ir.Nest
		want int64
	}
	var jobs []job
	for i := 0; i < 12; i++ {
		tiled, err := pluto.TileNest(randomNest(r, 3, 40), 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tiled.Statements()[0].Domain.Count(1 << 22)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{tiled, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				dom := j.nest.Statements()[0].Domain
				if got, err := dom.Count(1 << 22); err != nil || got != j.want {
					t.Errorf("concurrent count = %d, %v; want %d", got, err, j.want)
				}
				for d := range dom.Sp.Out {
					dom.DimRange(d)
				}
			}
		}()
	}
	wg.Wait()
}
