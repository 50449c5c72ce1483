// Package core assembles the PolyUFC compilation flow of Fig. 3: lowering
// through the dialect stack, Pluto tiling/parallelization, PolyUFC-CM
// cache analysis, roofline characterization, Sec. V model construction,
// PolyUFC-SEARCH frequency-cap selection, and cap insertion with
// redundant-cap cleanup. The ML-PolyUFC multi-level machinery (Sec. VI)
// lives here too: caps can be applied at torch, linalg or affine
// granularity, and the per-dialect phase-change study of Fig. 5 is
// exposed as PhaseStudy.
package core

import (
	"context"
	"strings"
	"time"

	"polyufc/internal/cachemodel"
	"polyufc/internal/faults"
	"polyufc/internal/ir"
	"polyufc/internal/model"
	"polyufc/internal/pipeline"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
)

// Config parameterizes one compilation.
type Config struct {
	// Target is the resolved backend handle: the registry description,
	// the platform built from it and the calibrated roofline constants,
	// as one value (roofline.Resolve / ResolveName produce it).
	Target *roofline.Target
	// Tiling selects the tile-stage strategy (internal/tiling) and is the
	// one spelling of the tile size ("pluto:size=N"): the zero value is
	// the pluto strategy at pluto.DefaultOptions, which is byte-identical
	// to the pre-strategy pipeline. The spec's fingerprint is folded into
	// CacheKey and is the tile stage's memo salt, so distinct strategies
	// never share a tile-or-later artifact.
	Tiling tiling.Spec
	// FullyAssoc switches PolyUFC-CM to the fully-associative model (the
	// Fig. 8 ablation) in place of the paper's per-set model.
	FullyAssoc bool
	Search     search.Options
	// CapLevel selects the granularity caps are applied at (Sec. VI-B);
	// linalg is the paper's choice.
	CapLevel ir.Dialect
	// AmortizeFactor gates cap insertion on profitability: a cap that
	// changes the active frequency is only inserted when the kernel's
	// predicted runtime is at least AmortizeFactor x the platform's
	// cap-switch latency (Sec. VII-F overhead discussion). 0 disables the
	// gate.
	AmortizeFactor float64
	// Degrade selects the failure policy: Strict (fail-fast, the default)
	// aborts the whole module on the first stage error; BestEffort
	// isolates failures per nest — a failed Pluto stage falls back to the
	// untiled nest, a failed cache-model stage leaves the nest uncapped,
	// and the KernelReport is marked Degraded with the error recorded.
	Degrade DegradePolicy
	// Faults, when non-nil, arms the compiler's injection points
	// (FaultPluto, FaultCacheModel, and the per-strategy tiling.<name>
	// points) for robustness testing.
	Faults *faults.Registry
}

// DegradePolicy selects how Compile reacts to a per-nest stage failure.
type DegradePolicy int

// Degradation policies.
const (
	// Strict aborts the compilation on the first stage error (fail-fast).
	Strict DegradePolicy = iota
	// BestEffort isolates the failure to the nest and degrades it:
	// untiled on a Pluto failure, uncapped on a cache-model failure.
	BestEffort
)

func (d DegradePolicy) String() string {
	switch d {
	case Strict:
		return "strict"
	case BestEffort:
		return "best-effort"
	}
	return "degrade?"
}

// ParseDegradePolicy maps a CLI string to a policy.
func ParseDegradePolicy(s string) (DegradePolicy, bool) {
	switch s {
	case "strict", "":
		return Strict, true
	case "best-effort", "besteffort":
		return BestEffort, true
	}
	return Strict, false
}

// Named fault points of the compilation pipeline (see internal/faults).
const (
	// FaultPluto poisons the Pluto tiling stage of the next nest.
	FaultPluto = "core.pluto"
	// FaultCacheModel poisons the PolyUFC-CM stage of the next nest.
	FaultCacheModel = "core.cachemodel"
)

// memoizable reports whether compilations under c may be memoized — whole
// Results and stage snapshots alike. Armed faults forbid it: injection
// points are call-ordered state, so replaying a memoized outcome would
// repeat one injection across compilations and skip the others.
func (c Config) memoizable() bool { return c.Faults == nil }

// DefaultConfig returns the paper's evaluation configuration for a
// resolved backend target.
func DefaultConfig(t *roofline.Target) Config {
	return Config{
		Target:         t,
		Search:         search.DefaultOptions(),
		CapLevel:       ir.DialectLinalg,
		AmortizeFactor: 5,
	}
}

// Timings is the Table-IV compile-time breakdown: every executed pipeline
// stage's event, in order. The paper's four columns are sums over stage
// names, stated once in Tab4.
type Timings struct {
	Stages []pipeline.Event
}

// Tab4 returns the paper's four Table-IV columns: preprocessing, Pluto
// (dependence analysis + tiling), PolyUFC-CM (the counting and the
// hierarchy evaluation) and steps 4-6 (every other stage, so the four sum
// to Total).
func (t Timings) Tab4() (preprocess, pluto, polyufcCM, steps4to6 time.Duration) {
	preprocess = t.Of(StagePreprocess)
	pluto = t.Of(StageDeps, StageTile)
	polyufcCM = t.Of(StageCacheModel, StageCacheEval)
	return preprocess, pluto, polyufcCM, t.Total() - preprocess - pluto - polyufcCM
}

// Of sums the recorded time of the named stages.
func (t Timings) Of(stages ...string) time.Duration {
	var sum time.Duration
	for _, s := range t.Stages {
		for _, name := range stages {
			if s.Stage == name {
				sum += s.Duration
			}
		}
	}
	return sum
}

// Total returns the end-to-end compile time: the sum over every recorded
// stage event, so a stage added to the pipeline can never silently
// under-report the Table-IV breakdown.
func (t Timings) Total() time.Duration {
	var sum time.Duration
	for _, s := range t.Stages {
		sum += s.Duration
	}
	return sum
}

// KernelReport is the per-nest analysis outcome.
type KernelReport struct {
	Label  string
	Origin string
	OI     float64
	Class  roofline.Class
	CapGHz float64
	Tiled  bool
	// Tiling names the strategy that transformed the nest ("pluto",
	// "auto:latency", ...; empty when the tile stage degraded before
	// reporting), and TileSize the tile size it applied (0 when untiled).
	Tiling   string
	TileSize int64
	Threads  int
	// Est is the model estimate at the selected cap; EstDefault at the
	// driver's default (maximum uncore frequency).
	Est, EstDefault model.Estimate
	CM              *cachemodel.Result
	SearchEvals     int
	// Socket is the home socket the nest was placed on (topology
	// targets): -1 marks a parallel nest spanning every socket, 0 is the
	// only value single-socket targets produce.
	Socket int
	// RemoteRatio is the modeled fraction of the nest's DRAM traffic
	// served across the inter-socket link (0 on single-socket targets
	// and on serial nests, whose data is home-socket local).
	RemoteRatio float64
	// SocketCaps is the per-socket cap vector the placement selects:
	// the searched cap on every socket a parallel nest spans, or the
	// searched cap on the home socket with idle sockets parked at their
	// grid minimum. Nil on single-socket targets, so v1 reports are
	// unchanged.
	SocketCaps []float64
	// Degraded marks a best-effort fallback: a stage failed and this nest
	// fell back to untiled (Pluto failure) or uncapped (cache-model or
	// search failure). Err records the stage error behind it.
	Degraded bool
	Err      error
}

// TopologyResult aggregates a compilation's model estimates across the
// target's sockets and cluster nodes: the chip-to-cluster energy rollup
// the LULESH-style analysis reports. All figures are model predictions
// at the selected caps (Est) and at the driver default (EstDefault) —
// the same quantities the per-kernel reports carry, summed per socket
// and scaled to the node count. The json tags are the daemon's wire
// format for the "topology" response block.
type TopologyResult struct {
	// Sockets and Nodes mirror the backend topology.
	Sockets int `json:"sockets"`
	Nodes   int `json:"nodes"`
	// SocketSeconds[k] and SocketJoules[k] attribute predicted busy time
	// and energy to socket k: serial nests bill their home socket,
	// parallel nests bill their wall time to every socket they span and
	// split their energy evenly.
	SocketSeconds []float64 `json:"socket_seconds"`
	SocketJoules  []float64 `json:"socket_joules"`
	// NodeSeconds is the node makespan (the module runs its nests in
	// order); NodeJoules the node's total predicted energy.
	NodeSeconds float64 `json:"node_seconds"`
	NodeJoules  float64 `json:"node_joules"`
	// Cluster figures scale to Nodes identical replicas running the
	// module data-parallel: energy sums, the BSP step time is the node
	// makespan. ClusterEDP = (Nodes x NodeJoules) x NodeSeconds;
	// ClusterEDPDefault is the same rollup at the driver default.
	ClusterSeconds    float64 `json:"cluster_seconds"`
	ClusterJoules     float64 `json:"cluster_joules"`
	ClusterEDP        float64 `json:"cluster_edp"`
	ClusterEDPDefault float64 `json:"cluster_edp_default"`
}

// Result is the outcome of one PolyUFC compilation.
type Result struct {
	Module       *ir.Module
	Reports      []KernelReport
	Timings      Timings
	CapsInserted int
	CapsRemoved  int
	// Topology is the per-socket/cluster energy rollup; nil for
	// single-socket, single-node targets (v1 results are unchanged).
	Topology *TopologyResult
}

// FinalSocketCaps is the per-socket cap vector in force when the module
// finishes: the last report's that carries one (nil on a single-socket
// target).
func (r *Result) FinalSocketCaps() []float64 {
	for i := len(r.Reports) - 1; i >= 0; i-- {
		if caps := r.Reports[i].SocketCaps; caps != nil {
			return caps
		}
	}
	return nil
}

// Compile runs the full PolyUFC flow on a module (torch, linalg or affine
// level) and returns the transformed module with uncore caps inserted.
//
// Compile is pure: it never writes the input module (lowering rewrites a
// private spine copy, ir.Module.CopySpine), so two calls on the same module
// yield independent, deep-equal Results (modulo wall-clock Timings). The
// parallel engine's memo cache (Cache) relies on this property to share
// Results across sweeps.
func Compile(mod *ir.Module, cfg Config) (*Result, error) {
	return CompilePipeline(context.Background(), mod, cfg, PipelineOptions{})
}

// torchOrigin extracts the torch-level ancestor from an origin chain like
// "torch.sdpa/linalg.batch_matmul".
func torchOrigin(origin string) string {
	if i := strings.Index(origin, "/"); i >= 0 {
		return origin[:i]
	}
	return origin
}

// mergeTorchCaps rebuilds each function's cap placement at torch
// granularity: all existing caps are dropped, consecutive nests sharing a
// torch-level origin form one group, and each group gets a single cap —
// the min of member caps when every member is CB, the max otherwise (the
// paper's min/max combination rule, Sec. VII-A). Groups whose summed
// predicted runtime is below minSec stay uncapped (the profitability gate
// at group granularity).
func mergeTorchCaps(mod *ir.Module, reports []KernelReport, minSec float64) int {
	classOf := map[string]roofline.Class{}
	capOf := map[string]float64{}
	secOf := map[string]float64{}
	for _, r := range reports {
		classOf[r.Label] = r.Class
		capOf[r.Label] = r.CapGHz
		secOf[r.Label] = r.Est.Seconds
	}
	removed := 0
	for _, f := range mod.Funcs {
		// Strip caps, keep nests and foreign ops in order.
		var seq []ir.Op
		for _, op := range f.Ops {
			if _, ok := op.(*ir.SetUncoreCap); ok {
				removed++
				continue
			}
			seq = append(seq, op)
		}
		var out []ir.Op
		i := 0
		for i < len(seq) {
			nest, ok := seq[i].(*ir.Nest)
			if !ok {
				out = append(out, seq[i])
				i++
				continue
			}
			group := torchOrigin(nest.Origin())
			var nests []*ir.Nest
			j := i
			for j < len(seq) {
				n, ok := seq[j].(*ir.Nest)
				if !ok || torchOrigin(n.Origin()) != group {
					break
				}
				nests = append(nests, n)
				j++
				if group == "" {
					break // unlabelled nests stay solo
				}
			}
			allCB := true
			groupSec := 0.0
			for _, n := range nests {
				if classOf[n.Label] != roofline.ComputeBound {
					allCB = false
				}
				groupSec += secOf[n.Label]
			}
			gcap := capOf[nests[0].Label]
			for _, n := range nests[1:] {
				c := capOf[n.Label]
				if allCB && c < gcap {
					gcap = c
				}
				if !allCB && c > gcap {
					gcap = c
				}
			}
			if groupSec >= minSec {
				out = append(out, &ir.SetUncoreCap{GHz: gcap, Level: ir.DialectTorch, From: group})
				removed--
			}
			for _, n := range nests {
				out = append(out, n)
			}
			i = j
		}
		f.Ops = out
	}
	if removed < 0 {
		removed = 0
	}
	return removed
}

// dropRedundantCaps is the redundant-cap rewrite: in each function it
// drops a cap directly followed by another cap (the second shadows it)
// and a cap whose frequency equals the last cap kept (no change, so the
// runtime call is wasted). It filters each op list in place — cap-insert
// and cap-merge build those lists fresh in every compile — and returns
// how many caps it dropped.
func dropRedundantCaps(mod *ir.Module) int {
	removed := 0
	for _, f := range mod.Funcs {
		kept := f.Ops[:0]
		var last *ir.SetUncoreCap
		for i, op := range f.Ops {
			if c, ok := op.(*ir.SetUncoreCap); ok {
				shadowed := false
				if i+1 < len(f.Ops) {
					_, shadowed = f.Ops[i+1].(*ir.SetUncoreCap)
				}
				if shadowed || (last != nil && last.GHz == c.GHz) {
					removed++
					continue
				}
				last = c
			}
			kept = append(kept, op)
		}
		f.Ops = kept
	}
	return removed
}

// Phase is one entry of the Fig. 5 phase-change study.
type Phase struct {
	Level ir.Dialect
	Op    string
	Class roofline.Class
	OI    float64
}

// PhaseStudy characterizes a module at every dialect level: the torch view
// aggregates all lowered pieces of each torch op, the linalg view
// characterizes each structured op, and the affine view each nest (after
// Pluto). It returns the per-level phase sequences.
//
// The study is the compile pipeline's analysis prefix (up to cache-eval)
// followed by the phase classification of the prefix's nests. Like
// Compile, it is pure: it lowers a private spine copy.
func PhaseStudy(mod *ir.Module, cfg Config) (map[ir.Dialect][]Phase, error) {
	res, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{Until: StageCacheEval})
	if err != nil {
		return nil, err
	}
	out := map[ir.Dialect][]Phase{}
	type agg struct {
		name  string
		flops int64
		qdram int64
	}
	var torchAggs []agg
	i := 0 // the prefix reports one nest each, in module walk order
	for _, f := range res.Module.Funcs {
		for _, op := range f.Ops {
			nest, ok := op.(*ir.Nest)
			if !ok {
				continue
			}
			cm := res.Reports[i].CM
			i++
			if cm == nil {
				continue // degraded under BestEffort: no phase entry
			}
			// Linalg view: one phase per nest (our linalg ops lower 1:1 to
			// nests).
			out[ir.DialectLinalg] = append(out[ir.DialectLinalg], Phase{
				Level: ir.DialectLinalg, Op: nest.Origin(),
				Class: cfg.Target.Constants.Classify(cm.OI), OI: cm.OI,
			})
			// Affine view: one phase per polyhedral statement — the finest
			// granularity (Sec. VI-B notes its control overhead).
			stRes, err := cachemodel.AnalyzeStatements(nest, cfg.Target.Platform.Cache, cmOptions(cfg, nest))
			if err != nil {
				return nil, err
			}
			for _, sr := range stRes {
				out[ir.DialectAffine] = append(out[ir.DialectAffine], Phase{
					Level: ir.DialectAffine,
					Op:    nest.Label + "/" + sr.Name,
					Class: cfg.Target.Constants.Classify(sr.OI), OI: sr.OI,
				})
			}
			// Torch aggregation by origin.
			root := torchOrigin(nest.Origin())
			if len(torchAggs) == 0 || torchAggs[len(torchAggs)-1].name != root {
				torchAggs = append(torchAggs, agg{name: root})
			}
			torchAggs[len(torchAggs)-1].flops += cm.Flops
			torchAggs[len(torchAggs)-1].qdram += cm.QDRAM
		}
	}
	for _, a := range torchAggs {
		oi := 0.0
		if a.qdram > 0 {
			oi = float64(a.flops) / float64(a.qdram)
		}
		out[ir.DialectTorch] = append(out[ir.DialectTorch], Phase{
			Level: ir.DialectTorch, Op: a.name,
			Class: cfg.Target.Constants.Classify(oi), OI: oi,
		})
	}
	return out, nil
}
