// Package cachemodel implements PolyUFC-CM, the approximate polyhedral
// set-associative cache-miss model of the paper (Sec. IV). Cold misses are
// the distinct cache lines an access relation touches; capacity and
// conflict misses come from per-set reuse distances: a reuse whose window
// footprint exceeds the per-set associativity misses. The model follows the
// paper's approximations: each cache set is treated fully-associative
// within itself, per-set pressure is estimated from the footprint's set
// spread, and OpenMP sharing divides sequential miss counts by the thread
// count (Sec. IV-B).
package cachemodel

import (
	"math"
	"sort"

	"polyufc/internal/ir"
)

// ivExtent is the (average) trip count and per-iteration address stride of
// one induction variable for one access.
type ivExtent struct {
	trips  int64 // iterations
	stride int64 // |bytes| the address moves per iteration
}

// accessAddr linearizes an access into its byte address: the absolute
// coefficient of an IV is the byte stride of that loop.
func accessAddr(acc ir.Access) ir.AffExpr {
	lin := ir.AffConst(0)
	strides := acc.Array.Strides()
	for d, e := range acc.Index {
		lin = lin.Add(e.Scale(strides[d]))
	}
	return lin.Scale(acc.Array.ElemSize)
}

// Footprint is the structured distinct-lines estimate of one access over a
// loop window: Blocks disjoint dense regions, each of DenseLines cache
// lines, with consecutive blocks BlockStride bytes apart.
type Footprint struct {
	Blocks      int64
	DenseLines  int64
	BlockStride int64 // bytes between blocks; 0 when Blocks == 1
}

// Lines returns the estimated number of distinct cache lines touched.
func (f Footprint) Lines() int64 { return f.Blocks * f.DenseLines }

// SetSpread estimates how many distinct cache sets the footprint covers.
// A dense region spreads over consecutive sets; strided blocks whose
// line-stride shares a factor with the set count collapse onto
// numSets/gcd sets (the power-of-two conflict pathology of Fig. 8).
func (f Footprint) SetSpread(lineSize, numSets int64) int64 {
	if numSets <= 1 {
		return 1
	}
	denseSpread := minI64(f.DenseLines, numSets)
	if f.Blocks <= 1 {
		return denseSpread
	}
	reachable := numSets
	if f.BlockStride > 0 && f.BlockStride%lineSize == 0 {
		ls := f.BlockStride / lineSize
		g := gcd(numSets, ls)
		reachable = numSets / g
	}
	spread := minI64(f.Blocks, reachable) * denseSpread
	return minI64(spread, numSets)
}

// PerSetOccupancy returns the estimated peak number of lines competing for
// one cache set.
func (f Footprint) PerSetOccupancy(lineSize, numSets int64) int64 {
	spread := f.SetSpread(lineSize, numSets)
	if spread <= 0 {
		return f.Lines()
	}
	return (f.Lines() + spread - 1) / spread
}

// computeFootprint estimates the footprint of an access over a window of
// IVs with the given extents, via the classic dimension-coalescing
// argument: IVs are visited in increasing stride order while a dense byte
// extent E is grown; an IV whose stride exceeds the current extent
// multiplies the number of disjoint dense blocks instead.
func computeFootprint(elemSize, lineSize int64, exts []ivExtent) Footprint {
	sort.Slice(exts, func(a, b int) bool { return exts[a].stride < exts[b].stride })
	extent := elemSize // dense bytes covered by the innermost region
	blocks := int64(1)
	blockStride := int64(0)
	for _, x := range exts {
		if x.trips <= 1 || x.stride == 0 {
			continue
		}
		switch {
		case x.stride <= extent:
			// Iterations overlap or abut: the region grows densely.
			extent += x.stride * (x.trips - 1)
		case x.stride < lineSize:
			// Sub-line gaps still land on contiguous lines.
			extent += x.stride * (x.trips - 1)
		default:
			// Disjoint blocks.
			if blocks == 1 {
				blockStride = x.stride
			} else {
				blockStride = gcd(blockStride, x.stride)
			}
			blocks *= x.trips
		}
	}
	dense := (extent + lineSize - 1) / lineSize
	return Footprint{Blocks: blocks, DenseLines: dense, BlockStride: blockStride}
}

// accessFootprint estimates the footprint of one access over every suffix
// window ivs[l:] of a loop stack, l = 0..len(ivs): trips[l][i] is the trip
// count of ivs[l+i] within window l. It reads the access's IV coefficients
// and element size, never its constant offsets.
func accessFootprint(acc ir.Access, ivs []string, trips [][]int64, lineSize int64) []Footprint {
	addr := accessAddr(acc)
	exts := make([]ivExtent, len(ivs))
	fps := make([]Footprint, len(trips))
	for l, tr := range trips {
		w := exts[:len(tr)]
		for i, iv := range ivs[l:] {
			c := addr.Coeff(iv)
			w[i] = ivExtent{trips: tr[i], stride: max(c, -c)}
		}
		fps[l] = computeFootprint(acc.Array.ElemSize, lineSize, w)
	}
	return fps
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// roundTrip converts a positive float to the nearest int64, at least 1.
func roundTrip(f float64) int64 {
	if f < 1 {
		return 1
	}
	return int64(math.Round(f))
}
