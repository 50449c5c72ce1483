package plantable

import (
	"context"
	"fmt"
	"math"
	"sort"

	"polyufc/internal/hw"
	"polyufc/internal/model"
	"polyufc/internal/parallel"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
)

// Base axis resolutions before ridge densification.
const (
	oiPoints  = 33
	memPoints = 25
)

// qRef is the synthetic kernels' timed DRAM volume. Any value works —
// the search outcome is invariant under it (see the package comment) —
// but a large one keeps the int64 rounding of Flops/QBytes far below
// the axes' resolution.
const qRef = int64(1) << 30

// Adaptive refinement bounds. The base axes are only a starting mesh:
// Build splits any axis interval across which a cap surface moves more
// than maxCellSpread indices, so the resolution tracks the backend's own
// cap grid (a 0.05 GHz-step machine refines further than a 0.1 GHz one).
// An interval narrower than refineMinRatio (or refineMinAbs from a zero
// endpoint) is a genuine surface cliff and stays unsplit — Lookup's
// spread guard refuses those cells.
const (
	refineMaxRounds = 8
	refineMinRatio  = 1.01
	refineMinAbs    = 1e-6
	maxAxisPoints   = 2048
)

// BuildOptions parameterizes a plan-table sweep. It has no fields: every
// table is swept at the default axis resolutions and search options.
type BuildOptions struct{}

// ridgeMultipliers densify the OI axis around phi = BtDRAM, where the
// CB/BB characterization flips and the cap surface moves fastest
// (SNIPPETS.md: ridge_point = peak_compute / peak_bandwidth).
var ridgeMultipliers = []float64{
	0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
	1, 1.05, 1.1, 1.2, 1.4, 1.7, 2, 2.5, 3,
}

// memDensify adds resolution where the compute and memory terms trade
// off (a comparable to M(fRef)).
var memDensify = []float64{0.5, 0.7, 0.85, 1, 1.15, 1.3, 1.5, 2}

// logSpace returns n log-spaced points over [lo, hi].
func logSpace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// dedupAscending sorts and removes (near-)duplicates so the axis is
// strictly ascending.
func dedupAscending(vals []float64) []float64 {
	sort.Float64s(vals)
	out := vals[:0]
	for _, v := range vals {
		if len(out) > 0 && v <= out[len(out)-1]*(1+1e-12) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// oiAxisFor builds the phi axis for a backend: log-spaced across eight
// decades around the ridge point BtDRAM, densified at the ridge.
func oiAxisFor(bt float64) []float64 {
	axis := logSpace(bt*1e-4, bt*1e4, oiPoints)
	for _, m := range ridgeMultipliers {
		axis = append(axis, bt*m)
	}
	return dedupAscending(axis)
}

// memAxisPoints builds the memory-ratio axis: a pure-streaming 0 point
// plus log-spaced coverage of a/M(fRef) across six decades, densified
// around 1.
func memAxisPoints() []float64 {
	axis := append(logSpace(1e-3, 1e3, memPoints), memDensify...)
	axis = append(axis, 0)
	return dedupAscending(axis)
}

// syntheticModel constructs the canonical kernel model of one intensive
// shape on a machine whose inter-socket link costs link: timed DRAM
// volume qRef of which the share sh.rho crosses the link, Flops =
// phi*qRef, and enough L1-hit traffic to make the frequency-independent
// local per-byte time equal ratio*M(fRef). Every real kernel with the
// same shape receives the same search answer as this witness (the search
// outcome is volume-invariant — both link terms scale with Q too), so
// sweeping witnesses tabulates the whole family.
func syntheticModel(c *platform.Constants, link platform.LinkCost, sh shape, fRef float64) (*model.Model, error) {
	phi, ratio := sh.phi, sh.ratio
	if !(phi >= 0) || !(ratio >= 0) || !(sh.rho >= 0) || sh.rho > 1 || !(fRef > 0) {
		return nil, fmt.Errorf("plantable: synthetic model: need phi, ratio >= 0, rho in [0, 1] and fRef > 0, got phi=%g ratio=%g rho=%g fRef=%g",
			phi, ratio, sh.rho, fRef)
	}
	th := c.CalibThreads
	if th < 1 {
		th = 1
	}
	ks := model.KernelStats{
		Threads:     th, // at the calibration count, tComp = Flops*TFpu exactly
		QDRAM:       qRef,
		QDRAMTime:   qRef,
		Flops:       int64(math.Round(phi * float64(qRef))),
		RemoteRatio: sh.rho,
	}
	// The frequency-independent per-byte time a = ratio*M(fRef) splits
	// into the compute share phi*TFpu and a cache-hit remainder realized
	// as L1 traffic. Shapes with a < phi*TFpu are infeasible for real
	// kernels (their compute alone exceeds a); the witness saturates at
	// the feasibility boundary, which is where interpolation queries it.
	a := ratio * c.MissLat(fRef)
	extra := a - phi*c.TFpu
	if extra > 0 {
		if len(c.HitLatency) == 0 || !(c.HitLatency[0] > 0) {
			return nil, fmt.Errorf("plantable: synthetic model: constants for %q carry no usable L1 hit latency", c.Platform)
		}
		ks.QBytes = int64(math.Round(8 * extra * float64(qRef) * float64(th) / c.HitLatency[0]))
		ks.HitRatio = []float64{1}
		ks.MissRatio = []float64{1}
	}
	// The class enters the search only through Classify(OI): use phi
	// itself when it lands on the right side of the ridge, otherwise
	// force the requested surface.
	ks.OI = phi
	if c.Classify(phi) != sh.class {
		if sh.class == roofline.ComputeBound {
			ks.OI = 2 * c.BtDRAM
		} else {
			ks.OI = c.BtDRAM / 2
		}
	}
	m := model.New(c, ks)
	m.Remote = link
	return m, nil
}

// splitPoint is the refinement midpoint of one axis interval: geometric
// for positive intervals, halving toward a zero endpoint. The second
// return is false once the interval is too narrow to split further.
func splitPoint(lo, hi float64) (float64, bool) {
	if lo <= 0 {
		if hi <= refineMinAbs {
			return 0, false
		}
		return hi / 2, true
	}
	if hi/lo < refineMinRatio {
		return 0, false
	}
	return math.Sqrt(lo * hi), true
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Build sweeps one resolved target into its plan table: for every
// (class, phi, ratio, rho) cell, a synthetic witness kernel is searched
// live over the platform's uncore grid under search.DefaultOptions and
// the selected grid index recorded. The rho axis is the target's own:
// the remote shares its topology places nests at. The mesh then refines
// adaptively — any phi or ratio interval across which a plane of a
// surface moves more than one cap index is split and re-swept — until
// every cell is interpolation-safe or only sub-percent cliffs remain.
// Cells run in parallel.
func Build(ctx context.Context, t *roofline.Target, _ BuildOptions) (*Table, error) {
	if t == nil || t.Backend == nil || t.Platform == nil || t.Constants == nil {
		return nil, fmt.Errorf("plantable: build: target must carry backend, platform and constants")
	}
	c, p := t.Constants, t.Platform
	tb := &Table{
		grid:    p.UncoreSteps(),
		oiAxis:  oiAxisFor(c.BtDRAM),
		memAxis: memAxisPoints(),
		// The only shares placement assigns: none to a pinned nest, the
		// backend's RemoteShare to one spanning every socket.
		rhoAxis: []float64{0},
	}
	if rho := t.Backend.RemoteShare(true); rho > 0 {
		tb.rhoAxis = append(tb.rhoAxis, rho)
	}
	link := t.Backend.Link()
	opts := search.DefaultOptions()
	fRef := tb.refFreq()
	classes := []roofline.Class{roofline.ComputeBound, roofline.BandwidthBound}
	cache := map[shape]int{}
	for round := 0; ; round++ {
		var missing []shape
		for _, cls := range classes {
			for _, phi := range tb.oiAxis {
				for _, ratio := range tb.memAxis {
					for _, rho := range tb.rhoAxis {
						sh := shape{cls, phi, ratio, rho}
						if _, ok := cache[sh]; !ok {
							missing = append(missing, sh)
						}
					}
				}
			}
		}
		idxs, err := parallel.Map(ctx, len(missing), 0, func(ctx context.Context, n int) (int, error) {
			m, err := syntheticModel(c, link, missing[n], fRef)
			if err != nil {
				return 0, err
			}
			res, err := search.Run(ctx, m, tb.grid, opts)
			if err != nil {
				return 0, err
			}
			return hw.GridIndex(p.UncoreMin, p.UncoreMax, p.CapStep, res.BestGHz), nil
		})
		if err != nil {
			return nil, fmt.Errorf("plantable: build %s: %w", t.Backend.Name, err)
		}
		for n, sh := range missing {
			cache[sh] = idxs[n]
		}
		if round == refineMaxRounds {
			break
		}
		var addOI, addMem []float64
		for _, cls := range classes {
			for _, rho := range tb.rhoAxis {
				at := func(phi, ratio float64) int { return cache[shape{cls, phi, ratio, rho}] }
				for i := 0; i+1 < len(tb.oiAxis); i++ {
					for _, ratio := range tb.memAxis {
						if absInt(at(tb.oiAxis[i+1], ratio)-at(tb.oiAxis[i], ratio)) > maxCellSpread {
							if mid, ok := splitPoint(tb.oiAxis[i], tb.oiAxis[i+1]); ok {
								addOI = append(addOI, mid)
							}
							break // one split per interval per plane per round
						}
					}
				}
				for j := 0; j+1 < len(tb.memAxis); j++ {
					for _, phi := range tb.oiAxis {
						if absInt(at(phi, tb.memAxis[j+1])-at(phi, tb.memAxis[j])) > maxCellSpread {
							if mid, ok := splitPoint(tb.memAxis[j], tb.memAxis[j+1]); ok {
								addMem = append(addMem, mid)
							}
							break
						}
					}
				}
			}
		}
		if len(addOI)+len(addMem) == 0 ||
			len(tb.oiAxis)+len(addOI) > maxAxisPoints ||
			len(tb.memAxis)+len(addMem) > maxAxisPoints {
			break
		}
		tb.oiAxis = dedupAscending(append(tb.oiAxis, addOI...))
		tb.memAxis = dedupAscending(append(tb.memAxis, addMem...))
	}

	fill := func(cls roofline.Class) [][][]int {
		s := make([][][]int, len(tb.oiAxis))
		for i, phi := range tb.oiAxis {
			s[i] = make([][]int, len(tb.memAxis))
			for j, ratio := range tb.memAxis {
				s[i][j] = make([]int, len(tb.rhoAxis))
				for k, rho := range tb.rhoAxis {
					s[i][j][k] = cache[shape{cls, phi, ratio, rho}]
				}
			}
		}
		return s
	}
	tb.cb, tb.bb = fill(roofline.ComputeBound), fill(roofline.BandwidthBound)
	return tb, nil
}
