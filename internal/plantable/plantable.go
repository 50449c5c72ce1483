// Package plantable precomputes PolyUFC-SEARCH answers into an in-memory
// capping-plan table and answers kernels from it by interpolation
// (Kerncraft-style ahead-of-time analytic modeling, PAPERS.md). The
// compiler does not use it — a live bisection is cheaper than a lookup —
// and the benchmark harness measures a build and its lookups as a
// per-layer reference.
//
// The precomputation is sound because the bisection's answer depends
// only on a kernel's *intensive shape*, not its absolute volume: for the
// Sec. V model, t(f) = Q * (a + M(f)) where Q is the timed DRAM traffic,
// a the frequency-independent seconds per DRAM byte (compute + cache
// hits) and M(f) the hyperbolic per-byte miss service time. Scaling a
// kernel uniformly multiplies every estimate's Seconds/Joules by Q (EDP
// by Q^2) and leaves performance and bandwidth untouched, so every score
// comparison and every delta ratio the search steers by is invariant.
// The search outcome is therefore a function of exactly three values:
// the CB/BB class, phi = Flops/Q (flops per timed DRAM byte — the OI
// axis) and a (normalized here by M at the reference frequency — the
// memory-ratio axis). A table sweeps a (phi x ratio) grid per class,
// densified around the backend's ridge point phi = BtDRAM where the
// characterization flips (SNIPPETS.md RooflineSpec), and answers by
// bilinear interpolation.
//
// On a multi-socket topology a placement adds a fourth value: rho, the
// share of the kernel's DRAM bytes that crosses the inter-socket link
// (the link's time folds into the memory ratio, its per-byte energy does
// not). The topology decides which shares occur — 0 for a pinned nest,
// (S-1)/S for one spanning S sockets — so every table carries one
// (phi x ratio) plane per share it can be asked about: one plane on a
// single socket, two on S > 1.
package plantable

import (
	"math"
	"sort"

	"polyufc/internal/model"
	"polyufc/internal/roofline"
)

// maxCellSpread bounds how many grid indices the four corners of a cell
// may span before Lookup refuses to interpolate across it. A cell whose
// corners disagree by more than one step sits on a cliff of the cap
// surface (typically the ridge neighborhood); answering from it could
// miss the live bisection by the whole cliff height, so such lookups
// report false instead.
const maxCellSpread = 1

// Table is one backend's precomputed capping-plan surface: for each
// (class, OI, memory-ratio, remote-share) cell, the index into the
// uncore cap grid that PolyUFC-SEARCH selects.
type Table struct {
	// grid is the swept platform's uncore cap grid
	// (hw.Platform.UncoreSteps), ascending.
	grid []float64
	// oiAxis is phi = Flops per timed DRAM byte, ascending, densified
	// around the ridge point BtDRAM. memAxis is a / M(fRef): the
	// frequency-independent per-byte time over the miss service time at
	// the top grid frequency.
	oiAxis, memAxis []float64
	// rhoAxis lists, ascending from 0, the remote shares the target's
	// topology can place a nest at: {0} on a single socket, {0, (S-1)/S}
	// on S sockets. It is matched, never interpolated.
	rhoAxis []float64
	// cb and bb hold the selected grid index per (oiAxis[i], memAxis[j],
	// rhoAxis[k]) cell for compute-bound and bandwidth-bound kernels.
	cb, bb [][][]int
}

// gridFreq returns the cap frequency of grid index i, clamped into the
// grid.
func (tb *Table) gridFreq(i int) float64 {
	return tb.grid[min(max(i, 0), len(tb.grid)-1)]
}

// refFreq returns the table's reference frequency: the top grid point
// (not UncoreMax, which fractional steps may leave off the grid).
func (tb *Table) refFreq() float64 {
	return tb.grid[len(tb.grid)-1]
}

// shape is the intensive parameterization of one kernel model: the only
// values the search outcome depends on (see the package comment).
type shape struct {
	class roofline.Class
	// phi is Flops per timed DRAM byte (the OI axis).
	phi float64
	// ratio is the frequency-independent local per-byte time over M(fRef)
	// (the memory axis).
	ratio float64
	// rho is the share of DRAM bytes served across the inter-socket link.
	rho float64
}

// decompose reduces a fitted kernel model to its intensive shape against
// a reference frequency. It reports false for kernels outside the
// model's tabulable family (no DRAM traffic — their time is
// frequency-independent and the search degenerates).
func decompose(m *model.Model, fRef float64) (shape, bool) {
	q := m.KS.QDRAMTime
	if q == 0 {
		q = m.KS.QDRAM
	}
	if q <= 0 || fRef <= 0 {
		return shape{}, false
	}
	mRef := m.C.MissLat(fRef)
	if !(mRef > 0) || math.IsInf(mRef, 0) || math.IsNaN(mRef) {
		return shape{}, false
	}
	// t(fRef) = Q*(a + M(fRef)): recover a from one model evaluation
	// instead of re-deriving Eqns. 3-4, so the decomposition can never
	// drift from the model.
	a := m.At(fRef).Seconds/float64(q) - mRef
	// The evaluation folds in the remote traffic's frequency-independent
	// per-byte time; subtract it so the shape stays the local one and rho
	// remains an independent coordinate.
	rho := m.RemoteShare()
	if rho > 0 {
		a -= rho * m.Remote.SecPerByte
	}
	if a < 0 {
		a = 0 // float fuzz on pure-streaming kernels
	}
	phi := float64(m.KS.Flops) / float64(q)
	if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
		return shape{}, false
	}
	return shape{class: m.Class(), phi: phi, ratio: a / mRef, rho: rho}, true
}

// surface returns the index tensor answering for a class.
func (tb *Table) surface(cls roofline.Class) [][][]int {
	if cls == roofline.ComputeBound {
		return tb.cb
	}
	return tb.bb
}

// locate finds the cell [lo, lo+1] bracketing v on an ascending axis and
// the interpolation weight toward the upper edge. Outside the axis range
// it reports false.
func locate(axis []float64, v float64) (lo int, w float64, ok bool) {
	if math.IsNaN(v) || v < axis[0] || v > axis[len(axis)-1] {
		return 0, 0, false
	}
	hi := sort.SearchFloat64s(axis, v)
	if hi == 0 {
		return 0, 0, true
	}
	if hi == len(axis) {
		return len(axis) - 2, 1, true
	}
	lo = hi - 1
	span := axis[hi] - axis[lo]
	if span <= 0 {
		return lo, 0, true
	}
	return lo, (v - axis[lo]) / span, true
}

// Lookup answers the capping question for a fitted kernel model from the
// table: the selected cap frequency (always an exact grid point) and
// whether the table could answer. It reports false when the kernel
// decomposes outside the tabulated axes, has no DRAM traffic, sits at a
// remote share the table's topology does not place nests at, or lands in
// a cell whose corners span more than maxCellSpread grid steps (a cliff
// of the cap surface, where interpolation could not honor the
// one-grid-step equivalence bound).
func (tb *Table) Lookup(m *model.Model) (float64, bool) {
	sh, ok := decompose(m, tb.refFreq())
	if !ok {
		return 0, false
	}
	i, wi, ok := locate(tb.oiAxis, sh.phi)
	if !ok {
		return 0, false
	}
	j, wj, ok := locate(tb.memAxis, sh.ratio)
	if !ok {
		return 0, false
	}
	k := sort.SearchFloat64s(tb.rhoAxis, sh.rho)
	if k == len(tb.rhoAxis) || tb.rhoAxis[k] != sh.rho {
		return 0, false
	}
	s := tb.surface(sh.class)
	c00 := s[i][j][k]
	c01 := s[i][j+1][k]
	c10 := s[i+1][j][k]
	c11 := s[i+1][j+1][k]
	if max(c00, c01, c10, c11)-min(c00, c01, c10, c11) > maxCellSpread {
		return 0, false
	}
	// Bilinear interpolation in index space on the placement's rho plane,
	// then snap to the grid: the answer is always one of the cell's corner
	// indices (or between two adjacent ones), so the stored caps bound the
	// error.
	v := (1-wi)*((1-wj)*float64(c00)+wj*float64(c01)) +
		wi*((1-wj)*float64(c10)+wj*float64(c11))
	return tb.gridFreq(int(math.Round(v))), true
}
