package tiling

import (
	"fmt"
	"math"

	"polyufc/internal/cachemodel"
	"polyufc/internal/cachesim"
	"polyufc/internal/faults"
	"polyufc/internal/ir"
	"polyufc/internal/pluto"
)

// Fault-point names probed at the top of each concrete strategy (and
// therefore inside auto's candidate runs). A nil registry is a no-op, so
// production compiles pay nothing.
const (
	FaultPluto          = "tiling.pluto"
	FaultCacheOblivious = "tiling.cacheoblivious"
	FaultLatency        = "tiling.latency"
)

// Context carries the per-nest environment of a tiling: the nest's
// dependence analysis, the target's cache hierarchy (read by latency and
// auto) and the fault registry. Every strategy starts from
// pluto.DefaultOptions and overrides only the tile size.
type Context struct {
	// Deps is the nest's dependence analysis (pluto.Analyze), made once by
	// the caller for every tile size a strategy tries. Nil stands for a
	// nest outside pluto's class, which every strategy passes through
	// untiled. Deps may come from a structurally identical clone of the
	// nest.
	Deps   *pluto.DepInfo
	Cache  cachesim.Config
	Faults *faults.Registry
	// CapEDP scores a transformed nest by the EDP of the uncore cap
	// PolyUFC-SEARCH would select for it (lower is better) — the
	// objective the compiler actually optimizes, and auto's score: a
	// candidate that admits a deeper cap can win even with slightly more
	// traffic. ok = false (the model fit or search failed) makes auto skip
	// that candidate. Required by auto, ignored by the concrete strategies;
	// populated by core's tile stage.
	CapEDP func(nest *ir.Nest, cm *cachemodel.Result) (edp float64, ok bool)
}

// NestInfo is the per-nest tiling metadata a strategy reports; it is
// surfaced in KernelReport and journal records and snapshotted by the
// pipeline memo.
type NestInfo struct {
	// Strategy is the concrete strategy that transformed the nest; the
	// auto meta-strategy reports "auto:<winner>".
	Strategy string `json:"strategy"`
	// Tiled reports whether the nest was actually tiled (imperfect or
	// non-permutable nests pass through untiled under every strategy).
	Tiled bool `json:"tiled"`
	// TileSize is the tile size applied when Tiled (0 otherwise).
	TileSize int64 `json:"tile_size,omitempty"`
}

// Apply tiles one nest under spec and reports the tiling metadata; the
// zero-value spec tiles as pluto. Apply does not modify the input nest. On
// error the caller decides (via the degrade policy) whether to fail the
// compile or fall back untiled for that nest only.
func Apply(spec Spec, nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	spec = spec.Normalize()
	switch spec.Name {
	case NamePluto:
		return applyPluto(spec, nest, ctx)
	case NameCacheOblivious:
		return applyCacheOblivious(spec, nest, ctx)
	case NameLatency:
		return applyLatency(spec, nest, ctx)
	case NameAuto:
		return applyAuto(nest, ctx)
	}
	return nil, NestInfo{}, spec.Validate()
}

// applyPluto is the paper's stage 2: pluto.Transform with the default
// pluto options, optionally overriding the tile size from the spec.
func applyPluto(spec Spec, nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultPluto); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: pluto on %s: %w", nest.Label, err)
	}
	opts := pluto.DefaultOptions()
	if spec.Size > 0 {
		opts.TileSize = spec.Size
	}
	return runPluto(nest, ctx, opts, NamePluto)
}

// applyCacheOblivious approximates PCOT-style cache-oblivious tiling: a
// recursive space bisection halts once a sub-block's per-dimension
// extent drops to the leaf size, so the effective tile is a power of
// two derived from the nest's own iteration-space geometry — the
// geometric mean extent E = tripcount^(1/depth) bisected log2(sqrt(E))
// times, i.e. the largest power of two <= sqrt(E) — clamped to
// [base, 256] and independent of any cache parameter. The resulting
// miss curve tracks the problem size where a fixed 32 does not.
func applyCacheOblivious(spec Spec, nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultCacheOblivious); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: cacheoblivious on %s: %w", nest.Label, err)
	}
	base := spec.Base
	if base <= 0 {
		base = DefaultBase
	}
	opts := pluto.DefaultOptions()
	opts.TileSize = leafTile(nest, base)
	return runPluto(nest, ctx, opts, NameCacheOblivious)
}

// leafTile computes the recursive-bisection leaf size for a nest: the
// largest power of two no greater than the square root of the geometric
// mean per-dimension extent, clamped to [base, 256]. Nests whose trip
// count cannot be established statically use the base leaf.
func leafTile(nest *ir.Nest, base int64) int64 {
	depth := 0
	nest.WalkLoops(func(_ *ir.Loop, d int) {
		if d+1 > depth {
			depth = d + 1
		}
	})
	tc, err := nest.TripCount()
	if err != nil || tc <= 0 || depth == 0 {
		return clampPow2(base, base, 256)
	}
	extent := math.Pow(float64(tc), 1/float64(depth))
	return clampPow2(int64(math.Sqrt(extent)), base, 256)
}

// clampPow2 returns the largest power of two <= v, clamped to [lo, hi].
func clampPow2(v, lo, hi int64) int64 {
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	p := int64(1)
	for p*2 <= v {
		p *= 2
	}
	if p < 2 {
		p = 2
	}
	return p
}

// latencyLadder is the candidate tile-size ladder the latency strategy
// probes, smallest first; Spec.Probe bounds how many are modeled.
var latencyLadder = []int64{8, 16, 32, 64, 128, 256}

// Nominal per-level hit latencies (cycles) used to turn PolyUFC-CM
// miss counts into a scalar access-latency score, plus the DRAM miss
// penalty. Only the relative ordering matters for tile selection.
var (
	levelLatency = []float64{4, 12, 40, 80}
	dramLatency  = 200.0
)

// latencyExactBelow bounds the exact-trace route inside candidate
// scoring: nests of at most this many instances are simulated, larger ones
// counted by PolyUFC-CM, keeping compile cost low either way.
const latencyExactBelow = 1 << 12

// scoreRecord is the traffic record a candidate is scored on: the
// simulator's for a small nest, PolyUFC-CM's serial one otherwise.
func scoreRecord(nest *ir.Nest, cache cachesim.Config) (*cachemodel.Result, error) {
	if tc, err := nest.TripCount(); err == nil && tc <= latencyExactBelow {
		return cachemodel.Simulate(nest, cache)
	}
	return cachemodel.Analyze(nest, cache, cachemodel.DefaultOptions())
}

// applyLatency derives the tile size from miss-ratio scaling: each
// candidate size on the ladder is tiled speculatively, its traffic record
// taken from scoreRecord (exact cachesim trace for small nests, analytic
// counts for large ones), and the candidate minimizing the modeled total
// access latency wins. Ties break toward the smaller size.
func applyLatency(spec Spec, nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultLatency); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: latency on %s: %w", nest.Label, err)
	}
	probe := spec.Probe
	if probe <= 0 {
		probe = DefaultProbe
	}
	if probe > len(latencyLadder) {
		probe = len(latencyLadder)
	}

	var (
		best     *ir.Nest
		bestInfo NestInfo
		bestCost = math.Inf(1)
		lastErr  error
	)
	for _, size := range latencyLadder[:probe] {
		opts := pluto.DefaultOptions()
		opts.TileSize = size
		out, info, err := runPluto(nest, ctx, opts, NameLatency)
		if err != nil {
			lastErr = err
			continue
		}
		if !info.Tiled {
			// The nest is outside the tileable class; every candidate
			// would produce the same untransformed nest.
			return out, info, nil
		}
		cost, err := modeledLatency(out, ctx)
		if err != nil {
			lastErr = err
			continue
		}
		if cost < bestCost {
			best, bestInfo, bestCost = out, info, cost
		}
	}
	if best == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no candidate tile size")
		}
		return nil, NestInfo{}, fmt.Errorf("tiling: latency on %s: %w", nest.Label, lastErr)
	}
	return best, bestInfo, nil
}

// modeledLatency scores a transformed nest: per-level hits weighted by
// nominal latencies plus LLC misses at the DRAM penalty.
func modeledLatency(nest *ir.Nest, ctx Context) (float64, error) {
	cm, err := scoreRecord(nest, ctx.Cache)
	if err != nil {
		return 0, err
	}
	var cost float64
	for i, lv := range cm.Levels {
		lat := levelLatency[len(levelLatency)-1]
		if i < len(levelLatency) {
			lat = levelLatency[i]
		}
		cost += float64(lv.Accesses-lv.Misses) * lat
	}
	cost += float64(cm.LLC().Misses) * dramLatency
	return cost, nil
}

// applyAuto races the three concrete strategies (pluto, cacheoblivious,
// latency, in that order) and keeps the candidate with the lowest Context.CapEDP — the EDP of the cap the
// search selects for its transformed nest, the compiler's actual
// objective. Ties go to the earlier candidate, so an across-the-board tie
// behaves like pluto. Candidates that error or cannot be scored —
// including injected tiling.<name> faults — are skipped and never
// selected; auto errors only when every candidate failed.
func applyAuto(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if ctx.CapEDP == nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: auto on %s: no EDP scorer", nest.Label)
	}
	var (
		best     *ir.Nest
		bestInfo NestInfo
		bestEDP  = math.Inf(1)
		lastErr  error
	)
	for _, name := range []string{NamePluto, NameCacheOblivious, NameLatency} {
		out, info, err := Apply(Spec{Name: name}, nest, ctx)
		if err != nil {
			lastErr = err
			continue
		}
		cm, err := scoreRecord(out, ctx.Cache)
		if err != nil {
			lastErr = err
			continue
		}
		edp, ok := ctx.CapEDP(out, cm)
		if !ok {
			lastErr = fmt.Errorf("%s: no EDP score", name)
			continue
		}
		if best == nil || edp < bestEDP {
			best, bestEDP = out, edp
			bestInfo = NestInfo{Strategy: NameAuto + ":" + name, Tiled: info.Tiled, TileSize: info.TileSize}
		}
	}
	if best == nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: auto on %s: all candidates failed: %w", nest.Label, lastErr)
	}
	return best, bestInfo, nil
}

// runPluto funnels every strategy through the shared pluto legality and
// transform machinery with the given options, translating the pluto
// result into strategy metadata.
func runPluto(nest *ir.Nest, ctx Context, opts pluto.Options, name string) (*ir.Nest, NestInfo, error) {
	res, err := pluto.Transform(nest, ctx.Deps, opts)
	if err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: %s on %s: %w", name, nest.Label, err)
	}
	info := NestInfo{Strategy: name, Tiled: res.Tiled}
	if res.Tiled {
		info.TileSize = res.TileSize
	}
	return res.Nest, info, nil
}
