// Package hw simulates the paper's hardware substrate: the evaluation
// machines of Table III (Broadwell Xeon E5-1650v4 and Raptor Lake
// i5-13600) plus any backend registered as a description file, their
// uncore frequency (UFS) driver, and RAPL-style energy counters. The core
// clock is pinned at CoreBase, as under the performance governor; the
// joint core+uncore study sweeps it through MeasureAt. A Machine executes
// affine kernels through the exact cache simulator and converts the
// resulting event counts into time and power with a hidden "ground truth"
// model — distinct in structure and constants from the analytic Sec. V
// model PolyUFC derives, so the compiler's predictions are genuinely
// tested against measurement, as on real silicon.
//
// Platforms are constructed from internal/platform backend descriptions:
// the registry (not code) decides which machines exist.
package hw

import (
	"fmt"
	"math"

	"polyufc/internal/cachesim"
	"polyufc/internal/platform"
)

// Truth holds the hidden machine constants the hardware model uses. They
// live in the backend description (the simulator's silicon) and are not
// exported to the analytic model; PolyUFC must recover equivalent
// information through roofline micro-benchmarking.
type Truth = platform.Truth

// Platform describes one evaluation machine, constructed from a registry
// backend description.
type Platform struct {
	Name      string
	CPU       string
	Released  int
	Cores     int
	Threads   int
	CoreMin   float64 // GHz
	CoreMax   float64
	CoreBase  float64 // non-turbo base used by the performance governor
	UncoreMin float64
	UncoreMax float64
	// CapStep is the uncore cap granularity (0.1 GHz per the drivers).
	CapStep float64
	// CapLatency is the cost of one cap change (Sec. VII-F: 35us on BDW,
	// 21us on RPL).
	CapLatency float64 // seconds
	// HasUncoreRAPL reports whether the uncore energy zone is readable
	// (false on BDW, footnote 15).
	HasUncoreRAPL bool
	Cache         cachesim.Config
	// Socket is the topology index this platform views (FromBackend
	// always views socket 0).
	Socket int
	// Backend is the description this platform was constructed from.
	Backend *platform.Backend
	truth   Truth
}

// FromBackend constructs the Platform of a backend's socket 0 — the whole
// machine of a single-socket description.
func FromBackend(b *platform.Backend) (*Platform, error) { return SocketPlatform(b, 0) }

// SocketPlatform constructs the Platform view of one socket of a
// description: the socket's own uncore domain, cap grid, cache hierarchy
// and truth constants under the backend's name.
func SocketPlatform(b *platform.Backend, socket int) (*Platform, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if socket < 0 || socket >= len(b.Sockets) {
		return nil, fmt.Errorf("hw: backend %q has %d socket(s), no socket %d", b.Name, len(b.Sockets), socket)
	}
	s := &b.Sockets[socket]
	return &Platform{
		Name: b.Name, CPU: b.CPU, Released: b.Released,
		Cores: s.Cores, Threads: s.Threads,
		CoreMin: s.CoreMinGHz, CoreMax: s.CoreMaxGHz, CoreBase: s.CoreBaseGHz,
		UncoreMin: s.UncoreMinGHz, UncoreMax: s.UncoreMaxGHz,
		CapStep: s.CapStepGHz, CapLatency: s.CapLatencySec,
		HasUncoreRAPL: s.HasUncoreRAPL,
		Cache:         s.CacheConfig(),
		Socket:        socket,
		Backend:       b,
		truth:         s.Truth,
	}, nil
}

// mustByName resolves a registry backend that is known to be embedded.
func mustByName(name string) *Platform {
	p, err := PlatformByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// BDW returns the Broadwell platform (Xeon E5-1650 v4, 6C/12T,
// core 1.2-4.0 GHz, uncore 1.2-2.8 GHz) from its embedded description.
func BDW() *Platform { return mustByName("BDW") }

// RPL returns the Raptor Lake platform (i5-13600, 14C/20T,
// core 0.8-5.0 GHz, uncore 0.8-4.6 GHz) from its embedded description.
func RPL() *Platform { return mustByName("RPL") }

// Platforms returns the paper's evaluation machines of Table III — the
// registered backends marked paper, which the golden experiments sweep.
func Platforms() []*Platform {
	var out []*Platform
	for _, b := range platform.Paper() {
		p, err := FromBackend(b)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

// PlatformByName resolves a platform through the backend registry by
// canonical name or alias (case-insensitive). Unknown names return an
// error listing the registered backends, never a nil platform.
func PlatformByName(name string) (*Platform, error) {
	b, err := platform.Lookup(name)
	if err != nil {
		return nil, err
	}
	return FromBackend(b)
}

// UncoreSteps returns the allowed uncore cap frequencies: the grid
// anchored at UncoreMin, CapStep apart, up to the largest point that
// still fits in the range. Steps that do not divide the range evenly
// leave UncoreMax off the grid rather than emitting an out-of-range
// point.
func (p *Platform) UncoreSteps() []float64 {
	n := GridSize(p.UncoreMin, p.UncoreMax, p.CapStep)
	out := make([]float64, n)
	for i := range out {
		out[i] = GridPoint(p.UncoreMin, p.CapStep, i)
	}
	return out
}

// GridSize counts the grid points min, min+step, ... that fit in
// [min, max]; degenerate ranges or steps yield the single point min.
// It is exported for callers that rebuild a cap grid from (min, max,
// step) and must agree with UncoreSteps.
func GridSize(min, max, step float64) int {
	if step <= 0 || max < min {
		return 1
	}
	return int((max-min)/step+1e-9) + 1
}

// GridPoint returns min + i*step snapped to 3 decimals, so 0.1 and
// 0.05 GHz grids render exactly. The index-based anchoring (rather than
// accumulating additions) is what keeps fractional steps float-drift
// free; every cap-grid consumer must derive points through it.
func GridPoint(min, step float64, i int) float64 {
	return math.Round((min+float64(i)*step)*1000) / 1000
}

// GridIndex returns the index of the grid point nearest f, clamped into
// the grid anchored at min: GridPoint(min, step, GridIndex(...)) is
// always an element of the grid.
func GridIndex(min, max, step, f float64) int {
	n := GridSize(min, max, step)
	if step <= 0 {
		return 0
	}
	i := int(math.Round((f - min) / step))
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// clampToGrid rounds f to the nearest grid point anchored at min and
// clamps to the grid's range — the returned value is always an element
// of the grid, even when step does not divide max-min evenly.
func clampToGrid(min, max, step, f float64) float64 {
	return GridPoint(min, step, GridIndex(min, max, step, f))
}

// ClampCap rounds a requested cap to the platform's step grid and range;
// the result is always one of UncoreSteps.
func (p *Platform) ClampCap(f float64) float64 {
	if p.CapStep <= 0 {
		return math.Min(math.Max(f, p.UncoreMin), p.UncoreMax)
	}
	return clampToGrid(p.UncoreMin, p.UncoreMax, p.CapStep, f)
}
