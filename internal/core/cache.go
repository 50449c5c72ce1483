package core

import (
	"context"
	"fmt"
	"strings"

	"polyufc/internal/ir"
	"polyufc/internal/parallel"
	"polyufc/internal/search"
)

// CacheKey identifies one memoizable compilation: the kernel, the target
// platform, the problem size class, and the configuration bits that change
// the compiled artifact (cap granularity, cache-model associativity, the
// profitability gate). Two compilations with equal keys produce deep-equal
// Results, because Compile is pure and deterministic for a fixed input.
// KeyOf is the one derivation; build keys through it.
type CacheKey struct {
	Kernel   string
	Platform string
	// BackendHash pins the exact backend description
	// (platform.Backend.Hash): fields outside the calibrated constants —
	// the cap latency, the cap grid, the topology — change compiled
	// artifacts too, so an edited description must not share entries with
	// the one it replaced.
	BackendHash string
	// CalHash pins the calibrated constants (platform.Constants.Hash) the
	// compilation ran against. A daemon that re-fits a drifted backend
	// swaps its target; compilations against the new fit must not share
	// entries with the stale one.
	CalHash string
	// Size is the workloads.SizeClass ordinal (kept as int to avoid a
	// core -> workloads dependency).
	Size       int
	CapLevel   ir.Dialect
	FullyAssoc bool
	// Tiling is the tiling-strategy fingerprint (tiling.Spec.Fingerprint;
	// "" and "pluto" are the same artifact, so callers may pass either).
	// Distinct strategies transform nests differently and must never
	// share entries.
	Tiling string
	// NoAmortize marks configurations with the profitability gate
	// disabled (AmortizeFactor 0), as in the Sec. VII-F overhead study.
	NoAmortize bool
	// Objective and Epsilon pin the PolyUFC-SEARCH configuration: the
	// selected cap depends on both, so compilations that vary them (the
	// serving daemon does, per request) must not share entries.
	Objective search.Objective
	Epsilon   float64
	// Degrade is the failure policy: Strict and BestEffort results differ
	// only in the presence of stage failures, but they must not share
	// cache entries — a degraded Result is a different artifact.
	Degrade DegradePolicy
}

// KeyOf derives the identity of compiling kernel at a size class under
// cfg, reading every result-changing bit from the Config: the target and
// its calibration, the tiling, cache-model, search and cap settings and
// the degrade policy. It is the single place a compilation's identity is
// decided — every rung of the daemon's response ladder (answer memo,
// journal, CAS) and every checkpoint journal (CacheKey.UnitKey) key on it.
func KeyOf(kernel string, size int, cfg Config) CacheKey {
	keys := cfg.Target.Keys()
	return CacheKey{
		Kernel:      kernel,
		Size:        size,
		CapLevel:    cfg.CapLevel,
		FullyAssoc:  cfg.FullyAssoc,
		Tiling:      cfg.Tiling.Fingerprint(),
		NoAmortize:  cfg.AmortizeFactor == 0,
		Objective:   cfg.Search.Objective,
		Epsilon:     cfg.Search.Epsilon,
		Degrade:     cfg.Degrade,
		Platform:    cfg.Target.Platform.Name,
		BackendHash: keys.BackendHash,
		CalHash:     keys.CalHash,
	}
}

// String renders the key in the response journal's wire layout:
// platform/be<hash>/cal<hash>/kernel/sz<n>/objective/lvl<n>/eps<g>/tiling=<fp>.
// Only the components a served request can vary are rendered — FullyAssoc,
// NoAmortize and Degrade are process-wide settings of the daemon. It is a
// wire format, not a substitute for key equality.
func (k CacheKey) String() string {
	return strings.Join([]string{
		k.Platform, "be" + k.BackendHash, "cal" + k.CalHash, k.Kernel,
		fmt.Sprintf("sz%d", k.Size), k.Objective.String(),
		fmt.Sprintf("lvl%d", int(k.CapLevel)), fmt.Sprintf("eps%g", k.Epsilon),
		"tiling=" + k.Tiling,
	}, "/")
}

// UnitKey is the journal identity of one checkpointed unit of a tool's
// work (a sweep point, a comparison row, a compile report), built from
// what the unit computed rather than what it was called: the experiment or
// tool name, the key's wire form, and the degrade policy String leaves
// out. A caller sweeping a coordinate appends it, printed exactly (%g).
func (k CacheKey) UnitKey(tool string) string {
	return strings.Join([]string{tool, k.String(), k.Degrade.String()}, "/")
}

// Cache memoizes whole PolyUFC compilations by CacheKey. It is safe for
// concurrent use: concurrent requests for the same key build once and
// share the Result (singleflight). Shared Results must be treated as
// immutable by callers.
//
// Its one user is the benchmark harness's traced mirror of the daemon's
// compile path (bench/trace.go); the daemon and the evaluation suite call
// CompilePipeline over a stage cache, where a configuration compiled
// before is a chain of stage hits. ROADMAP items 4 and 5 replace the
// mirror, and Cache and CompileStaged are deleted with it.
//
// The embedded Memo supplies SetLimit, the counters and Reset; long-running
// processes must SetLimit — an unbounded memo is a memory leak under
// open-ended traffic. The zero value is ready to use.
type Cache struct {
	parallel.Memo[CacheKey, *Result]
}

// CompileStaged returns the memoized Result for key, building the module
// and compiling it on the first request. The build callback runs only on
// a cache miss, so repeated sweeps skip both module construction and the
// whole polyhedral pipeline. The staged-execution controls are threaded
// to the pipeline: a whole-result miss still reuses memoized per-stage
// snapshots (opts.Stages) and reports stage events (opts.Observe), so
// e.g. a search request after a characterize request on the same kernel
// skips preprocess, tile and the cache model.
//
// Two kinds of compilation bypass the memo and run directly: one with
// armed faults (see Config.memoizable), and a prefix run (opts.Until) —
// a prefix Result is a different artifact than the full compile under the
// same key, and leans on the stage cache instead.
func (c *Cache) CompileStaged(ctx context.Context, key CacheKey, cfg Config, opts PipelineOptions, build func() (*ir.Module, error)) (*Result, error) {
	compile := func() (*Result, error) {
		mod, err := build()
		if err != nil {
			return nil, err
		}
		return CompilePipeline(ctx, mod, cfg, opts)
	}
	if !cfg.memoizable() || opts.Until != "" {
		return compile()
	}
	return c.Do(ctx, key, compile)
}
