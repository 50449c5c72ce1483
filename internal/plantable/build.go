package plantable

import (
	"context"
	"fmt"
	"math"
	"sort"

	"polyufc/internal/hw"
	"polyufc/internal/journal"
	"polyufc/internal/model"
	"polyufc/internal/parallel"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
)

// Default base axis resolutions before ridge densification.
const (
	DefaultOIPoints  = 33
	DefaultMemPoints = 25
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
// spread guard refuses those cells and the serve path falls back to live
// search there.
const (
	refineMaxRounds = 8
	refineMinRatio  = 1.01
	refineMinAbs    = 1e-6
	maxAxisPoints   = 2048
)

// BuildOptions parameterizes a plan-table sweep.
type BuildOptions struct {
	// OIPoints and MemPoints set the base (pre-densification) axis
	// resolutions; zero selects the defaults.
	OIPoints  int
	MemPoints int
	// Search pins the objective and epsilon the table answers for. A
	// zero Epsilon selects search.DefaultOptions().
	Search search.Options
	// Tiling stamps the tiling strategy the table answers for (the
	// zero value stamps pluto, the pre-strategy default). The swept
	// surface is strategy-independent — witnesses are synthetic shapes —
	// but the stamp makes the table an axis of the serving
	// configuration, so per-strategy pipelines pin their own tables.
	Tiling tiling.Spec
	// Journal, when set, checkpoints every solved cell to a crash-safe
	// journal file so an interrupted sweep resumes instead of restarting.
	Journal *journal.Journal
	// Concurrency bounds the sweep workers; <1 uses GOMAXPROCS.
	Concurrency int
	// Socket selects the uncore domain the table answers for on a
	// multi-socket topology: the sweep runs against that socket's
	// platform view and calibration. 0 (the default) is the only valid
	// value for single-socket backends.
	Socket int
}

func (o BuildOptions) normalize() BuildOptions {
	if o.OIPoints <= 0 {
		o.OIPoints = DefaultOIPoints
	}
	if o.MemPoints <= 0 {
		o.MemPoints = DefaultMemPoints
	}
	if o.Search.Epsilon == 0 {
		o.Search = search.DefaultOptions()
	}
	return o
}

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
// strictly ascending as Validate requires.
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

// OIAxisFor builds the phi axis for a backend: log-spaced across eight
// decades around the ridge point BtDRAM, densified at the ridge.
func OIAxisFor(bt float64, n int) []float64 {
	axis := logSpace(bt*1e-4, bt*1e4, n)
	for _, m := range ridgeMultipliers {
		axis = append(axis, bt*m)
	}
	return dedupAscending(axis)
}

// MemAxisPoints builds the memory-ratio axis: a pure-streaming 0 point
// plus log-spaced coverage of a/M(fRef) across six decades, densified
// around 1.
func MemAxisPoints(n int) []float64 {
	axis := append(logSpace(1e-3, 1e3, n), memDensify...)
	axis = append(axis, 0)
	return dedupAscending(axis)
}

// SyntheticModel constructs the canonical kernel model of one intensive
// shape on a machine whose inter-socket link costs link: timed DRAM
// volume qRef of which the share sh.Rho crosses the link, Flops =
// phi*qRef, and enough L1-hit traffic to make the frequency-independent
// local per-byte time equal ratio*M(fRef). Every real kernel with the
// same shape receives the same search answer as this witness (the search
// outcome is volume-invariant — both link terms scale with Q too), so
// sweeping witnesses tabulates the whole family.
func SyntheticModel(c *platform.Constants, link platform.LinkCost, sh Shape, fRef float64) (*model.Model, error) {
	phi, ratio := sh.Phi, sh.Ratio
	if !(phi >= 0) || !(ratio >= 0) || !(sh.Rho >= 0) || sh.Rho > 1 || !(fRef > 0) {
		return nil, fmt.Errorf("plantable: synthetic model: need phi, ratio >= 0, rho in [0, 1] and fRef > 0, got phi=%g ratio=%g rho=%g fRef=%g",
			phi, ratio, sh.Rho, fRef)
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
		RemoteRatio: sh.Rho,
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
	if c.Classify(phi) != sh.Class {
		if sh.Class == roofline.ComputeBound {
			ks.OI = 2 * c.BtDRAM
		} else {
			ks.OI = c.BtDRAM / 2
		}
	}
	m := model.New(c, ks)
	m.Remote = link
	return m, nil
}

// cellKey is the journal checkpoint key of one solved cell. It is keyed
// by the cell's axis values (not indices), so a resumed sweep at a
// different axis resolution reuses every cell both resolutions share;
// rho = 0 cells keep the key journals written before the axis existed
// use.
func cellKey(tb *Table, sh Shape) string {
	key := fmt.Sprintf("plantable/%s/%s/%s/eps%g/%s/phi%.17g/mem%.17g",
		tb.BackendHash, tb.CalHash, tb.Objective, tb.Epsilon, sh.Class, sh.Phi, sh.Ratio)
	if sh.Rho != 0 {
		key += fmt.Sprintf("/rho%.17g", sh.Rho)
	}
	return key
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
// live over the platform's uncore grid and the selected grid index
// recorded. The rho axis is the target's own: the remote shares its
// topology places nests at. The mesh then refines adaptively — any
// phi or ratio interval across which a plane of a surface moves more
// than one cap index is split and re-swept — until every cell is
// interpolation-safe or only sub-percent cliffs remain. Cells run in
// parallel; with a journal, each solved cell is checkpointed so a killed
// sweep resumes where it stopped (journal keys are axis values, so
// re-sweeps and resumed runs share solved cells).
func Build(ctx context.Context, t *roofline.Target, opts BuildOptions) (*Table, error) {
	if t == nil || t.Backend == nil || t.Platform == nil || t.Constants == nil {
		return nil, fmt.Errorf("plantable: build: target must carry backend, platform and constants")
	}
	opts = opts.normalize()
	S := t.NumSockets()
	if opts.Socket < 0 || opts.Socket >= S {
		return nil, fmt.Errorf("plantable: build: socket %d out of range for %s (%d sockets)",
			opts.Socket, t.Backend.Name, S)
	}
	// The sweep runs against the selected socket's domain: its platform
	// view (the cap grid) and its calibration. Socket 0 is exactly the
	// pre-topology single-socket sweep.
	c := t.SocketConstants(opts.Socket)
	p := t.Platform
	if opts.Socket > 0 {
		var err error
		if p, err = hw.SocketPlatform(t.Backend, opts.Socket); err != nil {
			return nil, err
		}
	}
	tb := &Table{
		Header: Header{
			Schema:       SchemaVersion,
			Backend:      t.Backend.Name,
			BackendHash:  t.Backend.Hash(),
			CalHash:      c.Hash(),
			Objective:    opts.Search.Objective.String(),
			Epsilon:      opts.Search.Epsilon,
			Tiling:       opts.Tiling.Fingerprint(),
			UncoreMinGHz: p.UncoreMin,
			UncoreMaxGHz: p.UncoreMax,
			CapStepGHz:   p.CapStep,
			OIAxis:       OIAxisFor(c.BtDRAM, opts.OIPoints),
			MemAxis:      MemAxisPoints(opts.MemPoints),
		},
		Socket: opts.Socket,
		// The only shares placement assigns: none to a pinned nest, the
		// backend's RemoteShare to one spanning every socket.
		RhoAxis: []float64{0},
	}
	if rho := t.Backend.RemoteShare(true); rho > 0 {
		tb.RhoAxis = append(tb.RhoAxis, rho)
	}
	link := t.Backend.Link()

	freqs := p.UncoreSteps()
	fRef := tb.refFreq()
	classes := []roofline.Class{roofline.ComputeBound, roofline.BandwidthBound}
	cache := map[Shape]int{}
	for round := 0; ; round++ {
		var missing []Shape
		for _, cls := range classes {
			for _, phi := range tb.OIAxis {
				for _, ratio := range tb.MemAxis {
					for _, rho := range tb.RhoAxis {
						sh := Shape{cls, phi, ratio, rho}
						if _, ok := cache[sh]; !ok {
							missing = append(missing, sh)
						}
					}
				}
			}
		}
		idxs, err := parallel.Map(ctx, len(missing), opts.Concurrency, func(ctx context.Context, n int) (int, error) {
			idx, _, err := journal.Step(opts.Journal, cellKey(tb, missing[n]), func() (int, error) {
				m, err := SyntheticModel(c, link, missing[n], fRef)
				if err != nil {
					return 0, err
				}
				res, err := search.Run(ctx, m, freqs, opts.Search)
				if err != nil {
					return 0, err
				}
				return hw.GridIndex(tb.UncoreMinGHz, tb.UncoreMaxGHz, tb.CapStepGHz, res.BestGHz), nil
			})
			return idx, err
		})
		if err != nil {
			return nil, fmt.Errorf("plantable: build %s: %w", tb.Backend, err)
		}
		for n, sh := range missing {
			cache[sh] = idxs[n]
		}
		if round == refineMaxRounds {
			break
		}
		var addOI, addMem []float64
		for _, cls := range classes {
			for _, rho := range tb.RhoAxis {
				at := func(phi, ratio float64) int { return cache[Shape{cls, phi, ratio, rho}] }
				for i := 0; i+1 < len(tb.OIAxis); i++ {
					for _, ratio := range tb.MemAxis {
						if absInt(at(tb.OIAxis[i+1], ratio)-at(tb.OIAxis[i], ratio)) > maxCellSpread {
							if mid, ok := splitPoint(tb.OIAxis[i], tb.OIAxis[i+1]); ok {
								addOI = append(addOI, mid)
							}
							break // one split per interval per plane per round
						}
					}
				}
				for j := 0; j+1 < len(tb.MemAxis); j++ {
					for _, phi := range tb.OIAxis {
						if absInt(at(phi, tb.MemAxis[j+1])-at(phi, tb.MemAxis[j])) > maxCellSpread {
							if mid, ok := splitPoint(tb.MemAxis[j], tb.MemAxis[j+1]); ok {
								addMem = append(addMem, mid)
							}
							break
						}
					}
				}
			}
		}
		if len(addOI)+len(addMem) == 0 ||
			len(tb.OIAxis)+len(addOI) > maxAxisPoints ||
			len(tb.MemAxis)+len(addMem) > maxAxisPoints {
			break
		}
		tb.OIAxis = dedupAscending(append(tb.OIAxis, addOI...))
		tb.MemAxis = dedupAscending(append(tb.MemAxis, addMem...))
	}

	fill := func(cls roofline.Class) [][][]int {
		s := make([][][]int, len(tb.OIAxis))
		for i, phi := range tb.OIAxis {
			s[i] = make([][]int, len(tb.MemAxis))
			for j, ratio := range tb.MemAxis {
				s[i][j] = make([]int, len(tb.RhoAxis))
				for k, rho := range tb.RhoAxis {
					s[i][j][k] = cache[Shape{cls, phi, ratio, rho}]
				}
			}
		}
		return s
	}
	tb.CB, tb.BB = fill(roofline.ComputeBound), fill(roofline.BandwidthBound)
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	return tb, nil
}
