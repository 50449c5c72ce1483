package core

import (
	"context"
	"encoding/hex"
	"fmt"
	"strconv"

	"polyufc/internal/cachemodel"
	"polyufc/internal/ir"
	"polyufc/internal/lower"
	"polyufc/internal/model"
	"polyufc/internal/pipeline"
	"polyufc/internal/pluto"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
)

// Stable stage names of the compile pipeline. These strings are the
// shared vocabulary across Timings.Stages, statsz counters, degrade
// reports and the journal — changing one is a wire-format change.
const (
	// StagePreprocess lowers torch -> linalg -> affine (Fig. 3 prep).
	StagePreprocess = "preprocess"
	// StageDeps is the polyhedral dependence analysis of every nest (the
	// first half of stage 2). It reads the lowered module and nothing of
	// the configuration, so one analysis serves every tile size, strategy
	// and platform.
	StageDeps = "deps"
	// StageTile is tiling + parallelization (stage 2) under the
	// configured tiling strategy (internal/tiling; Pluto by default).
	StageTile = "tile"
	// StageCacheModel is PolyUFC-CM's polyhedral counting (stage 3a up to
	// the hierarchy: cachemodel.Measure) — where the analysis time goes. Of
	// the target it reads the line size alone.
	StageCacheModel = "cachemodel"
	// StageCacheEval applies the target's cache hierarchy to the counted
	// geometry (cachemodel.Geometry.Evaluate: misses per level, QDRAM, OI —
	// the rest of stages 3a-3b). It is the first stage of a pluto or
	// cacheoblivious compile that reads the target.
	StageCacheEval = "cache-eval"
	// StageCharacterize is the roofline CB/BB classification (stage 4).
	StageCharacterize = "characterize"
	// StageModelFit builds the Sec. V analytic model per nest (stage 5a).
	StageModelFit = "model-fit"
	// StageSearch is PolyUFC-SEARCH frequency-cap selection (stage 5b).
	StageSearch = "search"
	// StageCapInsert emits reports and inserts profitable caps (stage 6).
	StageCapInsert = "cap-insert"
	// StageCapMerge re-places caps at torch granularity (Sec. VI-B); it
	// runs only when Config.CapLevel is DialectTorch.
	StageCapMerge = "cap-merge"
	// StageRewriteCleanup drops shadowed and equal caps.
	StageRewriteCleanup = "rewrite-cleanup"
)

// nestState is everything the pipeline knows about one loop nest, filled
// in stage by stage; fields a stage has not reached yet are zero-valued.
// Pointered artifacts (cache-model result, model, errors) are immutable
// once produced, so stage snapshots share them.
type nestState struct {
	// nest is the loop nest in the module and slot its position in the
	// owning function's op list; tile swaps the optimized nest into both.
	// slot is stale once cap insertion rebuilds the op lists — nothing
	// after the tile stage reads it.
	nest *ir.Nest
	slot *ir.Op
	// tile is the tiling metadata the strategy reported (strategy name,
	// tiled flag, tile size); zero-valued when the tile stage degraded.
	tile tiling.NestInfo
	// deps is the nest's dependence analysis, made on the untiled nest (nil
	// for a nest outside pluto's class, which every strategy passes through
	// untiled). The tile stage is its only reader.
	deps *pluto.DepInfo
	// err records the first BestEffort stage error (deps, tile, cachemodel
	// or cache-eval); such a nest is compiled degraded.
	err error
	// geom is what PolyUFC-CM counted on the tiled nest, cm the result of
	// applying the target's hierarchy to it (both nil when degraded) and
	// class cm's roofline CB/BB classification.
	geom  *cachemodel.Geometry
	cm    *cachemodel.Result
	class roofline.Class
	// threads is the thread count reported and modeled.
	threads int
	// socket and remote are the topology placement (multi-socket targets
	// only; zero-valued otherwise): the home socket (-1 for a parallel
	// nest spanning every socket) and the modeled remote share of its DRAM
	// traffic.
	socket int
	remote float64
	// model and defEst hold the fitted Sec. V model and its estimate at
	// the driver-default (maximum) uncore frequency.
	model  *model.Model
	defEst model.Estimate
	// sres and serr hold the PolyUFC-SEARCH outcome or its BestEffort
	// failure (a failed model fit lands in serr too).
	sres search.Result
	serr error
}

// searched reports whether the nest came through analysis, model fit and
// cap selection intact — only then does it carry a cap of its own.
func (ns *nestState) searched() bool {
	return ns.cm != nil && ns.serr == nil && ns.model != nil
}

// compileState is the shared state the compile pipeline's stages operate
// on: the module under transformation plus one record per nest, in module
// walk order (stable across tiling, which replaces nests in place). Until
// preprocess runs or a snapshot is loaded, res.Module is the caller's
// input, which no stage writes; both replace it with a private spine copy
// (ir.Module.CopySpine), the only part of a module a stage writes.
type compileState struct {
	cfg   Config
	res   *Result
	nests []nestState
}

func newCompileState(mod *ir.Module, cfg Config) *compileState {
	return &compileState{cfg: cfg, res: &Result{Module: mod}}
}

// bindNests points recs[i] at the i-th nest of mod in walk order (the nest
// and its slot in the op list), growing recs with zero records as needed,
// and returns the bound slice.
func bindNests(mod *ir.Module, recs []nestState) []nestState {
	i := 0
	for _, f := range mod.Funcs {
		for j, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				if i == len(recs) {
					recs = append(recs, nestState{})
				}
				recs[i].nest, recs[i].slot = n, &f.Ops[j]
				i++
			}
		}
	}
	return recs[:i]
}

// stageSnap is the memoized snapshot of a stage's outputs: the module as
// of the stage plus the per-nest records, bound to that module's nests.
// One snapshot type serves all memoizable stages. A snapshot is immutable
// once saved: its module is a spine of its own, and the bodies under it
// are never written by anyone.
type stageSnap struct {
	mod   *ir.Module
	nests []nestState
}

// rebound returns a copy of the records bound to mod's nests.
func rebound(mod *ir.Module, recs []nestState) []nestState {
	return bindNests(mod, append([]nestState(nil), recs...))
}

// snapSave gives the snapshot a spine copy of the working module, which
// later stages go on writing; the bodies under both spines are shared.
func snapSave(st *compileState) any {
	mod := st.res.Module.CopySpine()
	return &stageSnap{mod: mod, nests: rebound(mod, st.nests)}
}

// snapLoad installs a spine copy of the snapshot's module as the working
// module, so the compile cannot touch the snapshot. The runner loads only
// the deepest snapshot of a chain of hits, so a compile over a cached
// prefix copies one spine, here.
func snapLoad(st *compileState, v any) {
	snap := v.(*stageSnap)
	st.res.Module = snap.mod.CopySpine()
	st.nests = rebound(st.res.Module, snap.nests)
}

// memoized arms snapshot support on the stages up to and including cap
// selection — everything stageSnap captures. The cap-insertion suffix
// rewrites the module's op lists and always runs.
func memoized(stages []pipeline.Stage[*compileState]) []pipeline.Stage[*compileState] {
	for i := range stages {
		stages[i].Save, stages[i].Load = snapSave, snapLoad
	}
	return stages
}

// stageBaseKey anchors the stage memo key chain: the module's content hash
// (stored on a sealed module, so a workloads kernel is never printed here)
// plus the one thing every stage reads from the config, the degrade policy
// (eachNest). Everything else enters the chain as the salt of the first
// stage that reads it — the target included, see platformSalt.
// Fault-injection runs return "", which disables stage memoization (see
// Config.memoizable).
func stageBaseKey(mod *ir.Module, cfg Config) string {
	if !cfg.memoizable() {
		return ""
	}
	sum := mod.ContentHash()
	return hex.EncodeToString(sum[:16]) + "|degrade=" + strconv.Itoa(int(cfg.Degrade))
}

// platformSalt is the target's contribution to the stage key chain: the
// platform name, the exact backend description (fields outside the
// constants — CapLatency, the cap grid, the topology — feed stages too)
// and the calibrated constants, both by their hashes in the target's Keys.
// The first stage of a pipeline that reads the target adds it to its salt
// — cache-eval always, tile before it when the strategy reads the target —
// and every later stage inherits it through the chain.
func platformSalt(cfg Config) string {
	keys := cfg.Target.Keys()
	return "platform=" + cfg.Target.Platform.Name + "|backend=" + keys.BackendHash + "|cal=" + keys.CalHash
}

// lineSize is the target's cache line size in bytes (0 without a
// hierarchy, which cachemodel.Measure rejects): the one machine parameter
// PolyUFC-CM's counting reads.
func lineSize(cfg Config) int64 {
	if lv := cfg.Target.Platform.Cache.Levels; len(lv) > 0 {
		return lv[0].LineSize
	}
	return 0
}

// nestThreads is the thread count a nest runs (and is modeled) with.
func nestThreads(cfg Config, nest *ir.Nest) int {
	return cfg.Target.Backend.NestThreads(nest.Parallel())
}

// cmOptions applies the OpenMP sharing heuristic: a parallel nest's
// sequential miss counts are divided across the machine's threads.
func cmOptions(cfg Config, nest *ir.Nest) cachemodel.Options {
	return cachemodel.Options{Threads: nestThreads(cfg, nest), FullyAssoc: cfg.FullyAssoc}
}

// eachNest is the per-nest walk the deps, tile, cachemodel, cache-eval,
// model-fit and search stages share, and the one place a nest-level
// failure is judged. Every nest runs as its own pipeline.Unit (a panic
// surfaces as that nest's error) behind a context check. A failure under
// Strict aborts the stage; so does one under a dead context, whatever the
// policy — deadline expiry or cancellation leaves a partial result, not a
// stage fault BestEffort should paper over. Otherwise the failure is
// handed to degrade, which records it on the nest, and the walk goes on.
func (st *compileState) eachNest(ctx context.Context, stage string, run func(ns *nestState) error, degrade func(ns *nestState, err error)) error {
	for i := range st.nests {
		ns := &st.nests[i]
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := pipeline.Unit(stage, ns.nest.Label, func() error { return run(ns) }); err != nil {
			if ctx.Err() != nil || st.cfg.Degrade != BestEffort {
				return err
			}
			degrade(ns, err)
		}
	}
	return nil
}

// degradeAnalysis records a deps, tile, cachemodel or cache-eval failure:
// the nest keeps its first error and is compiled degraded.
func degradeAnalysis(ns *nestState, err error) {
	if ns.err == nil {
		ns.err = err
	}
}

func stagePreprocess() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StagePreprocess,
		Run: func(_ context.Context, st *compileState) error {
			// The input module is the caller's: lowering rewrites the op
			// lists of a private spine copy of it.
			st.res.Module = st.res.Module.CopySpine()
			if err := lower.TorchToLinalg(st.res.Module); err != nil {
				return err
			}
			if err := lower.LinalgToAffine(st.res.Module); err != nil {
				return err
			}
			st.nests = bindNests(st.res.Module, nil)
			return nil
		},
	}
}

// stageDeps analyses every nest's dependences once, ahead of tiling: the
// analysis reads the lowered nest alone, so its snapshot is shared by every
// tile size, strategy and platform a kernel is compiled for. It does not
// change the module.
func stageDeps() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageDeps,
		Run: func(ctx context.Context, st *compileState) error {
			return st.eachNest(ctx, StageDeps, func(ns *nestState) error {
				ns.deps, _ = pluto.Analyze(ns.nest) // the error means "outside the class": deps stay nil
				return nil
			}, degradeAnalysis)
		},
	}
}

func stageTile() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageTile,
		Salt: func(st *compileState) string {
			salt := "tiling=" + st.cfg.Tiling.Fingerprint()
			if !st.cfg.Tiling.ReadsTarget() {
				// pluto and cacheoblivious tile from the nest alone: one
				// snapshot serves every platform. (An unknown strategy
				// fails in Run; its key is never stored under.)
				return salt
			}
			// latency and auto score candidates on the target's hierarchy.
			salt += "|" + platformSalt(st.cfg)
			if st.cfg.Tiling.Name == tiling.NameAuto {
				// Auto's candidate ranking consults the cap search, so
				// distinct search configurations must not share tiles.
				salt += "|search=" + st.cfg.Search.Fingerprint()
			}
			return salt
		},
		Run: func(ctx context.Context, st *compileState) error {
			if err := st.cfg.Tiling.Normalize().Validate(); err != nil {
				return err
			}
			capEDP := capEDPScorer(ctx, st.cfg)
			// BestEffort: a failed nest falls back to its untiled form and
			// is still analyzed and capped downstream.
			return st.eachNest(ctx, StageTile, func(ns *nestState) error {
				if ns.err != nil {
					return nil // the dependence stage degraded it: it stays untiled
				}
				if err := st.cfg.Faults.Hit(FaultPluto); err != nil {
					return err
				}
				out, info, err := tiling.Apply(st.cfg.Tiling, ns.nest, tiling.Context{
					Deps:   ns.deps,
					Cache:  st.cfg.Target.Platform.Cache,
					Faults: st.cfg.Faults,
					CapEDP: capEDP,
				})
				if err != nil {
					return err
				}
				*ns.slot, ns.nest, ns.tile = out, out, info
				return nil
			}, degradeAnalysis)
		},
	}
}

// capEDPScorer builds the auto-tiling scoring callback: the EDP of the
// uncore cap PolyUFC-SEARCH would select for a candidate's transformed
// nest under this configuration's calibration. Concrete strategies
// ignore it; it is auto's score. The score intentionally uses the plain
// single-socket model — candidate ranking happens before placement, and
// on homogeneous topologies the remote term shifts every candidate's EDP
// by the same traffic-proportional factor.
func capEDPScorer(ctx context.Context, cfg Config) func(nest *ir.Nest, cm *cachemodel.Result) (float64, bool) {
	return func(nest *ir.Nest, cm *cachemodel.Result) (float64, bool) {
		ks := model.FromCacheModel(cm, nestThreads(cfg, nest))
		m := model.New(cfg.Target.Constants, ks)
		res, err := search.Run(ctx, m, cfg.Target.Platform.UncoreSteps(), cfg.Search)
		if err != nil {
			return 0, false
		}
		return res.Best.EDP, true
	}
}

// stageCacheModel is the counting half of PolyUFC-CM. Of the target it
// reads the line size only, so a tiled nest is counted once for every
// platform sharing that line size; neither it nor cache-eval changes the
// module.
func stageCacheModel() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageCacheModel,
		Salt: func(st *compileState) string {
			return fmt.Sprintf("line=%d", lineSize(st.cfg))
		},
		Run: func(ctx context.Context, st *compileState) error {
			// Tile-degraded nests are analyzed too: they fell back to the
			// untiled form but can still be characterized and capped. The
			// thread-sharing divisor (cmOptions) is the target's and is
			// applied by cache-eval.
			return st.eachNest(ctx, StageCacheModel, func(ns *nestState) error {
				if err := st.cfg.Faults.Hit(FaultCacheModel); err != nil {
					return err
				}
				geom, err := cachemodel.Measure(ns.nest, lineSize(st.cfg))
				if err != nil {
					return err
				}
				ns.geom = geom
				return nil
			}, degradeAnalysis)
		},
	}
}

// stageCacheEval applies the target's hierarchy to each counted nest. Its
// salt is where the platform enters the key chain of a compile whose
// tiling strategy does not read the target.
func stageCacheEval() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageCacheEval,
		Salt: func(st *compileState) string {
			return fmt.Sprintf("fullyassoc=%t|%s", st.cfg.FullyAssoc, platformSalt(st.cfg))
		},
		Run: func(ctx context.Context, st *compileState) error {
			return st.eachNest(ctx, StageCacheEval, func(ns *nestState) error {
				if ns.geom == nil {
					return nil // counting degraded it
				}
				cm, err := ns.geom.Evaluate(st.cfg.Target.Platform.Cache, cmOptions(st.cfg, ns.nest))
				if err != nil {
					return err
				}
				ns.cm = cm
				return nil
			}, degradeAnalysis)
		},
	}
}

func stageCharacterize() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageCharacterize,
		Run: func(_ context.Context, st *compileState) error {
			// Topology placement: a parallel nest spans every socket and
			// sends the backend's RemoteShare of its DRAM traffic over the
			// link; a serial nest is pinned round-robin with its data
			// home-socket local. Single-socket targets skip this entirely
			// (socket 0, remote 0: the pre-topology state).
			S := st.cfg.Target.NumSockets()
			serial := 0
			for idx := range st.nests {
				ns := &st.nests[idx]
				ns.threads = nestThreads(st.cfg, ns.nest)
				if S > 1 {
					if ns.nest.Parallel() {
						ns.socket = -1
						ns.remote = st.cfg.Target.Backend.RemoteShare(true)
					} else {
						ns.socket = serial % S
						serial++
					}
				}
				if ns.cm != nil {
					ns.class = st.cfg.Target.Constants.Classify(ns.cm.OI)
				}
			}
			return nil
		},
	}
}

func stageModelFit() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageModelFit,
		Run: func(ctx context.Context, st *compileState) error {
			// The declared link's cost is part of every model; a nest
			// pays it on the remote share its placement assigned (none on
			// one socket, where the cost is zero as well).
			link := st.cfg.Target.Backend.Link()
			return st.eachNest(ctx, StageModelFit, func(ns *nestState) error {
				if ns.cm == nil {
					return nil
				}
				ks := model.FromCacheModel(ns.cm, ns.threads)
				ks.RemoteRatio = ns.remote
				// A pinned nest is modelled with its socket's calibration
				// (the same pointer on homogeneous topologies), a
				// spanning one (socket -1) with the primary fit.
				m := model.New(st.cfg.Target.SocketConstants(ns.socket), ks)
				m.Remote = link
				ns.model = m
				ns.defEst = m.At(st.cfg.Target.Platform.UncoreMax)
				return nil
			}, func(ns *nestState, err error) {
				ns.model, ns.serr = nil, err
			})
		},
	}
}

func stageSearch() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageSearch,
		Salt: func(st *compileState) string { return st.cfg.Search.Fingerprint() },
		Run: func(ctx context.Context, st *compileState) error {
			freqs := st.cfg.Target.Platform.UncoreSteps()
			return st.eachNest(ctx, StageSearch, func(ns *nestState) (err error) {
				if ns.model == nil {
					return nil
				}
				ns.sres, err = search.Run(ctx, ns.model, freqs, st.cfg.Search)
				return err
			}, func(ns *nestState, err error) { ns.serr = err })
		},
	}
}

// report builds the nest's KernelReport from what the executed stages
// produced — the one place a KernelReport is constructed. A prefix run
// (final false) reports the analysis so far with zero cap fields. At cap
// insertion (final true) a nest that came through search carries its
// selected cap, estimates and per-socket cap vector; a degraded one stays
// uncapped at activeCap, whatever frequency is in force when it runs.
func (st *compileState) report(ns *nestState, final bool, activeCap float64) KernelReport {
	rep := KernelReport{
		Label: ns.nest.Label, Origin: ns.nest.Origin(),
		Tiled: ns.tile.Tiled, Tiling: ns.tile.Strategy, TileSize: ns.tile.TileSize,
		Threads: ns.threads,
		Socket:  ns.socket, RemoteRatio: ns.remote,
		Degraded: ns.err != nil, Err: ns.err,
	}
	if ns.cm != nil {
		rep.OI, rep.CM = ns.cm.OI, ns.cm
	}
	switch {
	case !final:
		rep.Class = ns.class
	case ns.cm == nil:
		// Cache model degraded (BestEffort).
		rep.CapGHz, rep.Degraded = activeCap, true
	case !ns.searched():
		// Model fit or search degraded: characterized but uncapped.
		rep.CapGHz, rep.Degraded, rep.Err = activeCap, true, ns.serr
	default:
		rep.Class, rep.CapGHz = ns.sres.Class, ns.sres.BestGHz
		rep.Est, rep.EstDefault = ns.sres.Best, ns.defEst
		rep.SearchEvals = ns.sres.Evaluated
		rep.SocketCaps = st.socketCaps(ns)
	}
	return rep
}

// socketCaps builds the per-socket cap vector of a capped nest: the
// searched cap on every socket the nest runs on, idle sockets parked at
// their grid minimum (nil on single-socket targets, keeping v1 reports
// unchanged).
func (st *compileState) socketCaps(ns *nestState) []float64 {
	S := st.cfg.Target.NumSockets()
	if S <= 1 {
		return nil
	}
	topo := st.cfg.Target.Backend.Sockets
	caps := make([]float64, S)
	for k := range caps {
		if ns.socket < 0 || ns.socket == k {
			caps[k] = ns.sres.BestGHz
		} else {
			caps[k] = topo[k].UncoreMinGHz
		}
	}
	return caps
}

func stageCapInsert() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageCapInsert,
		Run: func(_ context.Context, st *compileState) error {
			cfg := st.cfg
			idx := 0
			for _, f := range st.res.Module.Funcs {
				var out []ir.Op
				activeCap := cfg.Target.Platform.UncoreMax // the driver default
				for _, op := range f.Ops {
					nest, ok := op.(*ir.Nest)
					if !ok {
						out = append(out, op)
						continue
					}
					ns := &st.nests[idx]
					idx++
					st.res.Reports = append(st.res.Reports, st.report(ns, true, activeCap))
					// Profitability gate (Sec. VII-F): switching the cap costs
					// CapLatency; only worthwhile when the kernel runs long
					// enough. A non-positive BestGHz (degenerate frequency
					// grid) never inserts a cap.
					sres := ns.sres
					profitable := cfg.AmortizeFactor <= 0 ||
						sres.Best.Seconds >= cfg.AmortizeFactor*cfg.Target.Platform.CapLatency
					if ns.searched() && profitable && sres.BestGHz > 0 && sres.BestGHz != activeCap {
						out = append(out,
							&ir.SetUncoreCap{GHz: sres.BestGHz, Level: cfg.CapLevel, From: nest.Label})
						st.res.CapsInserted++
						activeCap = sres.BestGHz
					}
					out = append(out, nest)
				}
				f.Ops = out
			}
			st.res.Topology = st.topologyResult()
			return nil
		},
	}
}

// topologyResult rolls the per-kernel model estimates up the topology:
// time and energy attributed per socket, node makespan, and the cluster
// EDP of Nodes identical replicas running the module data-parallel.
// Nil for single-socket, single-node targets.
func (st *compileState) topologyResult() *TopologyResult {
	S := st.cfg.Target.NumSockets()
	nodes := st.cfg.Target.Backend.NumNodes()
	if S <= 1 && nodes <= 1 {
		return nil
	}
	tr := &TopologyResult{
		Sockets: S, Nodes: nodes,
		SocketSeconds: make([]float64, S),
		SocketJoules:  make([]float64, S),
	}
	var defSeconds, defJoules float64
	for _, rep := range st.res.Reports {
		est := rep.Est
		if est.Seconds <= 0 {
			continue // degraded nest: no model estimate to attribute
		}
		tr.NodeSeconds += est.Seconds
		tr.NodeJoules += est.Joules
		defSeconds += rep.EstDefault.Seconds
		defJoules += rep.EstDefault.Joules
		if rep.Socket < 0 {
			// A spanning nest bills its wall time to every socket (they
			// run concurrently) and splits its energy evenly.
			for k := 0; k < S; k++ {
				tr.SocketSeconds[k] += est.Seconds
				tr.SocketJoules[k] += est.Joules / float64(S)
			}
		} else if rep.Socket < S {
			tr.SocketSeconds[rep.Socket] += est.Seconds
			tr.SocketJoules[rep.Socket] += est.Joules
		}
	}
	// The module runs its nests in order, so the node makespan is the
	// nest-time sum; the cluster's BSP step takes the same wall time on
	// every replica while energy scales with the node count.
	tr.ClusterSeconds = tr.NodeSeconds
	tr.ClusterJoules = float64(nodes) * tr.NodeJoules
	tr.ClusterEDP = tr.ClusterJoules * tr.ClusterSeconds
	tr.ClusterEDPDefault = float64(nodes) * defJoules * defSeconds
	return tr
}

func stageCapMerge() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageCapMerge,
		Run: func(_ context.Context, st *compileState) error {
			minSec := st.cfg.AmortizeFactor * st.cfg.Target.Platform.CapLatency
			st.res.CapsRemoved += mergeTorchCaps(st.res.Module, st.res.Reports, minSec)
			return nil
		},
	}
}

func stageRewriteCleanup() pipeline.Stage[*compileState] {
	return pipeline.Stage[*compileState]{
		Name: StageRewriteCleanup,
		Run: func(_ context.Context, st *compileState) error {
			st.res.CapsRemoved += dropRedundantCaps(st.res.Module)
			return nil
		},
	}
}

// compileStages declares the compile pipeline for a configuration. The
// torch cap-merge stage is present only at torch cap granularity.
func compileStages(cfg Config) []pipeline.Stage[*compileState] {
	stages := append(memoized([]pipeline.Stage[*compileState]{
		stagePreprocess(),
		stageDeps(),
		stageTile(),
		stageCacheModel(),
		stageCacheEval(),
		stageCharacterize(),
		stageModelFit(),
		stageSearch(),
	}), stageCapInsert())
	if cfg.CapLevel == ir.DialectTorch {
		stages = append(stages, stageCapMerge())
	}
	return append(stages, stageRewriteCleanup())
}

// stagePos returns the position of a stage name in the declared order,
// or -1.
func stagePos(stages []pipeline.Stage[*compileState], name string) int {
	for i, st := range stages {
		if st.Name == name {
			return i
		}
	}
	return -1
}

// PipelineOptions parameterizes CompilePipeline beyond the Config.
type PipelineOptions struct {
	// Stages enables per-stage memoization across compilations sharing
	// the cache. Snapshots are keyed by a content hash chained over the
	// module text and every upstream stage's configuration, so e.g. two
	// configs differing only in search objective share preprocess, tile
	// and cachemodel snapshots. nil disables stage memoization.
	Stages *pipeline.Cache
	// Until stops the pipeline after the named stage (a Stage* constant)
	// — the daemon's characterize endpoint stops at StageCharacterize.
	// Empty runs the full pipeline.
	Until string
	// Observe receives every stage event (timing, cache hit, error).
	Observe func(pipeline.Event)
}

// CompilePipeline is Compile with a deadline and staged-execution
// controls: an optional shared stage cache, a prefix bound, and an event
// observer. The context is checked between pipeline stages and between
// nests, and propagated into PolyUFC-SEARCH, so a serving daemon's
// per-request timeout bounds the whole compilation. Cancellation always
// aborts — it is a caller decision, not a stage fault, so BestEffort does
// not degrade around it. A prefix run (Until set before cap insertion)
// returns a Result whose Reports carry the analysis computed so far and
// whose module is the (lowered, tiled) input without caps.
func CompilePipeline(ctx context.Context, mod *ir.Module, cfg Config, opts PipelineOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Target == nil {
		return nil, fmt.Errorf("core: config needs a resolved target")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stages := compileStages(cfg)
	st := newCompileState(mod, cfg)
	ro := pipeline.RunOptions{Until: opts.Until, Observe: opts.Observe}
	if opts.Stages != nil {
		ro.Cache = opts.Stages
		ro.BaseKey = stageBaseKey(mod, cfg)
	}
	events, err := pipeline.New("core", stages...).Run(ctx, st, ro)
	if err != nil {
		return nil, err
	}
	st.res.Timings = Timings{Stages: events}
	if opts.Until != "" {
		if p := stagePos(stages, opts.Until); p >= 0 && p < stagePos(stages, StageCapInsert) {
			// A prefix run stopped before cap insertion: report the analysis
			// as far as the executed stages computed it.
			for i := range st.nests {
				st.res.Reports = append(st.res.Reports, st.report(&st.nests[i], false, 0))
			}
		}
	}
	return st.res, nil
}
