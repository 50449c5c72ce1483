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

// Fault-point names probed at the top of each concrete strategy's Apply
// (and therefore inside auto's candidate runs). A nil registry is a
// no-op, so production compiles pay nothing.
const (
	FaultPluto          = "tiling.pluto"
	FaultCacheOblivious = "tiling.cacheoblivious"
	FaultLatency        = "tiling.latency"
)

// Context carries the per-compile environment a strategy may consult:
// the target's cache hierarchy (for model-scored strategies) and the
// fault registry. Every strategy starts from pluto.DefaultOptions and
// overrides only the tile size.
type Context struct {
	Cache  cachesim.Config
	Faults *faults.Registry
	// CapEDP scores a transformed nest by the EDP of the uncore cap
	// PolyUFC-SEARCH would select for it (lower is better) — the
	// objective the compiler actually optimizes, and the auto
	// meta-strategy's score: a candidate that admits a deeper cap can win
	// even with slightly more traffic, and minimizing QDRAM alone picks
	// the wrong one exactly there. ok = false (the model fit or search
	// failed) makes auto skip that candidate. Required by auto, ignored by
	// the concrete strategies; populated by core's tile stage.
	CapEDP func(nest *ir.Nest, cm *cachemodel.Result) (edp float64, ok bool)

	// analysed and deps carry a nest's dependence analysis to the strategy
	// and the candidates it tries (see WithDeps).
	analysed *ir.Nest
	deps     *pluto.DepInfo
}

// WithDeps returns ctx carrying nest's dependence analysis, for callers
// that already ran it — core's dependence stage analyses each nest once
// for every tile size and platform. A nil deps stands for a nest
// pluto.Analyze rejected, which pluto.Transform passes through untiled.
// deps may come from a structurally identical clone of nest.
func (ctx Context) WithDeps(nest *ir.Nest, deps *pluto.DepInfo) Context {
	ctx.analysed, ctx.deps = nest, deps
	return ctx
}

// withDeps returns ctx carrying nest's dependence analysis, running it only
// when the caller did not supply it through WithDeps — a strategy applied
// directly, without core's pipeline. The analysis does not depend on tile
// size, so even then a strategy that tiles one nest several ways —
// latency's ladder, auto's race — pays for it once per Apply.
func (ctx Context) withDeps(nest *ir.Nest) Context {
	if ctx.analysed != nest {
		deps, _ := pluto.Analyze(nest) // the error means "outside the class": deps stay nil
		ctx = ctx.WithDeps(nest, deps)
	}
	return ctx
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

// Strategy is a pluggable tile-stage policy: a per-nest transform
// returning the (possibly) tiled nest plus tiling metadata. Apply must
// not modify the input nest.
type Strategy interface {
	// Name is the registered strategy name ("pluto", ...).
	Name() string
	// Fingerprint is the canonical options hash folded into cache keys
	// and stage salts (see Spec.Fingerprint).
	Fingerprint() string
	// ReadsTarget reports whether Apply consults the target through the
	// Context (Cache, CapEDP). A strategy that does not produces
	// the same nest on every platform, and the tile stage's memo key says
	// so by leaving the platform out.
	ReadsTarget() bool
	// Apply transforms one nest. On error the caller decides (via the
	// degrade policy) whether to fail the compile or fall back untiled
	// for that nest only.
	Apply(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error)
}

// New resolves a parsed spec to a Strategy. The zero-value spec yields
// the pluto strategy.
func New(spec Spec) (Strategy, error) {
	spec = spec.Normalize()
	switch spec.Name {
	case NamePluto:
		return &plutoStrategy{spec: spec}, nil
	case NameCacheOblivious:
		return &cobStrategy{spec: spec}, nil
	case NameLatency:
		return &latencyStrategy{spec: spec}, nil
	case NameAuto:
		return &autoStrategy{spec: spec}, nil
	default:
		return nil, fmt.Errorf("tiling: unknown strategy %q", spec.Name)
	}
}

// MustNew is New for specs already validated by ParseSpec.
func MustNew(spec Spec) Strategy {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// plutoStrategy reproduces the pre-strategy pipeline: pluto.Optimize
// with the default pluto options, optionally overriding the tile size
// from the spec. With a zero Size it is byte-identical to the old
// hard-wired stageTile.
type plutoStrategy struct{ spec Spec }

func (s *plutoStrategy) Name() string        { return NamePluto }
func (s *plutoStrategy) Fingerprint() string { return s.spec.Fingerprint() }
func (s *plutoStrategy) ReadsTarget() bool   { return false }

func (s *plutoStrategy) Apply(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultPluto); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: pluto on %s: %w", nest.Label, err)
	}
	opts := pluto.DefaultOptions()
	if s.spec.Size > 0 {
		opts.TileSize = s.spec.Size
	}
	return runPluto(nest, ctx, opts, NamePluto)
}

// cobStrategy approximates PCOT-style cache-oblivious tiling: a
// recursive space bisection halts once a sub-block's per-dimension
// extent drops to the leaf size, so the effective tile is a power of
// two derived from the nest's own iteration-space geometry — the
// geometric mean extent E = tripcount^(1/depth) bisected log2(sqrt(E))
// times, i.e. the largest power of two <= sqrt(E) — clamped to
// [base, 256] and independent of any cache parameter. The resulting
// miss curve tracks the problem size where a fixed 32 does not.
type cobStrategy struct{ spec Spec }

func (s *cobStrategy) Name() string        { return NameCacheOblivious }
func (s *cobStrategy) Fingerprint() string { return s.spec.Fingerprint() }
func (s *cobStrategy) ReadsTarget() bool   { return false }

func (s *cobStrategy) Apply(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultCacheOblivious); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: cacheoblivious on %s: %w", nest.Label, err)
	}
	base := s.spec.Base
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

// latencyStrategy derives the tile size from miss-ratio scaling: each
// candidate size on the ladder is tiled speculatively, its traffic
// record taken from scoreRecord (exact cachesim trace for small nests,
// analytic counts for large ones), and the candidate minimizing the modeled
// total access latency wins. Ties break toward the smaller size.
type latencyStrategy struct{ spec Spec }

func (s *latencyStrategy) Name() string        { return NameLatency }
func (s *latencyStrategy) Fingerprint() string { return s.spec.Fingerprint() }

// ReadsTarget: every candidate on the ladder is scored on the target's
// hierarchy.
func (s *latencyStrategy) ReadsTarget() bool { return true }

func (s *latencyStrategy) Apply(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	if err := ctx.Faults.Hit(FaultLatency); err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: latency on %s: %w", nest.Label, err)
	}
	probe := s.spec.Probe
	if probe <= 0 {
		probe = DefaultProbe
	}
	if probe > len(latencyLadder) {
		probe = len(latencyLadder)
	}

	ctx = ctx.withDeps(nest)
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

// autoStrategy races the three concrete strategies and keeps the winner.
// A candidate is scored by Context.CapEDP — the EDP of the cap the search
// selects for its transformed nest, the compiler's actual objective; the
// raw DRAM miss volume (QDRAM) and total LLC misses only break ties, then
// candidate order, so an across-the-board tie behaves like pluto.
// Candidates that error or cannot be scored — including injected
// tiling.<name> faults — are skipped and never selected; auto errors
// only when every candidate failed.
type autoStrategy struct{ spec Spec }

func (s *autoStrategy) Name() string        { return NameAuto }
func (s *autoStrategy) Fingerprint() string { return s.spec.Fingerprint() }

// ReadsTarget: auto races latency and scores every candidate by
// Context.CapEDP under the target's calibration.
func (s *autoStrategy) ReadsTarget() bool { return true }

// autoScore orders auto's candidates: lower EDP wins, then lower QDRAM,
// then fewer total misses.
type autoScore struct {
	edp  float64
	q    int64
	miss int64
}

func (a autoScore) betterThan(b autoScore) bool {
	if a.edp != b.edp {
		return a.edp < b.edp
	}
	if a.q != b.q {
		return a.q < b.q
	}
	return a.miss < b.miss
}

func (s *autoStrategy) Apply(nest *ir.Nest, ctx Context) (*ir.Nest, NestInfo, error) {
	candidates := []Strategy{
		&plutoStrategy{spec: Spec{Name: NamePluto}},
		&cobStrategy{spec: Spec{Name: NameCacheOblivious}},
		&latencyStrategy{spec: Spec{Name: NameLatency}},
	}
	if ctx.CapEDP == nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: auto on %s: no EDP scorer", nest.Label)
	}
	ctx = ctx.withDeps(nest)
	var (
		best      *ir.Nest
		bestInfo  NestInfo
		bestScore autoScore
		haveBest  bool
		lastErr   error
	)
	for _, cand := range candidates {
		out, info, err := cand.Apply(nest, ctx)
		if err != nil {
			lastErr = err
			continue
		}
		cm, err := scoreRecord(out, ctx.Cache)
		if err != nil {
			lastErr = err
			continue
		}
		score := autoScore{q: cm.QDRAM}
		for _, lv := range cm.Levels {
			score.miss += lv.Misses
		}
		var ok bool
		if score.edp, ok = ctx.CapEDP(out, cm); !ok {
			lastErr = fmt.Errorf("%s: no EDP score", cand.Name())
			continue
		}
		if !haveBest || score.betterThan(bestScore) {
			best = out
			bestInfo = NestInfo{Strategy: NameAuto + ":" + cand.Name(), Tiled: info.Tiled, TileSize: info.TileSize}
			bestScore = score
			haveBest = true
		}
	}
	if !haveBest {
		return nil, NestInfo{}, fmt.Errorf("tiling: auto on %s: all candidates failed: %w", nest.Label, lastErr)
	}
	return best, bestInfo, nil
}

// runPluto funnels every strategy through the shared pluto legality and
// transform machinery with the given options, translating the pluto
// result into strategy metadata.
func runPluto(nest *ir.Nest, ctx Context, opts pluto.Options, name string) (*ir.Nest, NestInfo, error) {
	res, err := pluto.Transform(nest, ctx.withDeps(nest).deps, opts)
	if err != nil {
		return nil, NestInfo{}, fmt.Errorf("tiling: %s on %s: %w", name, nest.Label, err)
	}
	info := NestInfo{Strategy: name, Tiled: res.Tiled}
	if res.Tiled {
		info.TileSize = res.TileSize
	}
	return res.Nest, info, nil
}
