package pluto

import (
	"fmt"

	"polyufc/internal/ir"
)

// Permute reorders a fully permutable perfect band for locality: loops
// whose unit increment moves the accesses farthest (large strides, cache
// miss per iteration) are pushed outward; loops carrying temporal (stride
// 0) or spatial (sub-line stride) reuse move inward. This is the
// locality-driven interchange component of the Pluto baseline (the
// classic ikj matmul permutation). Bound dependences are respected: a loop
// whose bounds reference another band IV stays inside it.
//
// parLevels optionally marks which original levels are parallel; until a
// parallel loop has been placed, parallel candidates win over higher-cost
// serial ones, so the outermost loop stays parallelizable (Pluto's
// priority: outer parallelism first, then locality). Pass nil for a pure
// locality order.
//
// It returns the permuted nest and perm, where perm[newLevel] = oldLevel.
// Legality (full permutability) is the caller's responsibility.
func Permute(nest *ir.Nest, parLevels []bool) (*ir.Nest, []int, error) {
	band, body, err := perfectBand(nest)
	if err != nil {
		return nil, nil, err
	}
	n := len(band)
	if n < 2 {
		return nest, identityPerm(n), nil
	}
	costs := loopCosts(band, body)

	// Bound dependences: mustBeInside[d] = set of band levels whose IVs
	// appear in level d's bounds.
	ivLevel := map[string]int{}
	for i, l := range band {
		ivLevel[l.IV] = i
	}
	deps := make([]map[int]bool, n)
	for d, l := range band {
		deps[d] = map[int]bool{}
		for _, b := range append(append([]ir.Bound(nil), l.Lo...), l.Hi...) {
			for _, t := range b.Expr.Terms() {
				if o, ok := ivLevel[t.IV]; ok && o != d {
					deps[d][o] = true
				}
			}
		}
	}

	// Greedy topological order: repeatedly place, as the next-outermost
	// loop, the highest-cost loop whose bound providers are all placed;
	// before any parallel loop is placed, parallel candidates take
	// precedence.
	isPar := func(d int) bool { return d < len(parLevels) && parLevels[d] }
	anyPar := false
	for d := 0; d < n; d++ {
		if isPar(d) {
			anyPar = true
		}
	}
	placed := make([]bool, n)
	parPlaced := false
	var perm []int
	for len(perm) < n {
		best := -1
		for d := 0; d < n; d++ {
			if placed[d] {
				continue
			}
			ready := true
			for o := range deps[d] {
				if !placed[o] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			if best < 0 {
				best = d
				continue
			}
			needPar := anyPar && !parPlaced
			if needPar && isPar(d) != isPar(best) {
				if isPar(d) {
					best = d
				}
				continue
			}
			if costs[d] > costs[best]+1e-12 {
				best = d
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("pluto: cyclic bound dependences in %s", nest.Label)
		}
		placed[best] = true
		if isPar(best) {
			parPlaced = true
		}
		perm = append(perm, best)
	}

	// Rebuild the nest in the new order.
	loops := make([]*ir.Loop, n)
	for newL, oldL := range perm {
		src := band[oldL]
		loops[newL] = &ir.Loop{
			IV:       src.IV,
			Lo:       append([]ir.Bound(nil), src.Lo...),
			Hi:       append([]ir.Bound(nil), src.Hi...),
			Parallel: src.Parallel,
		}
	}
	for i := 0; i < n-1; i++ {
		loops[i].Body = []ir.Node{loops[i+1]}
	}
	loops[n-1].Body = body
	out := &ir.Nest{Label: nest.Label, Root: loops[0]}
	out.SetOrigin(nest.Origin())
	return out, perm, nil
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// loopCosts estimates, per band level, the cache-miss cost of one
// increment of that loop across all statement accesses: 0 for temporal
// reuse, stride/line for sub-line spatial strides, 1 for line-or-larger
// strides.
func loopCosts(band []*ir.Loop, body []ir.Node) []float64 {
	const line = 64.0
	costs := make([]float64, len(band))
	var visit func(nodes []ir.Node)
	visit = func(nodes []ir.Node) {
		for _, node := range nodes {
			switch x := node.(type) {
			case *ir.Loop:
				visit(x.Body)
			case *ir.Statement:
				for _, acc := range x.Accesses {
					addr := accAddr(acc)
					for d, l := range band {
						s := addr.Coeff(l.IV)
						if s < 0 {
							s = -s
						}
						switch {
						case s == 0:
						case float64(s) < line:
							costs[d] += float64(s) / line
						default:
							costs[d] += 1
						}
					}
				}
			}
		}
	}
	visit(body)
	return costs
}

// accAddr linearizes an access into its byte address: the coefficient of
// an IV is the byte stride of that loop.
func accAddr(acc ir.Access) ir.AffExpr {
	lin := ir.AffConst(0)
	strides := acc.Array.Strides()
	for d, e := range acc.Index {
		lin = lin.Add(e.Scale(strides[d]))
	}
	return lin.Scale(acc.Array.ElemSize)
}
