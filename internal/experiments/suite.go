// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. VII): the uncore-frequency sweeps of Fig. 1, the
// phase-change study of Fig. 5, the roofline characterization of Fig. 6,
// the time/energy/EDP comparison against the UFS-driver baseline of
// Fig. 7, the associativity ablation of Fig. 8, the roofline constants of
// Tab. I, the benchmark and platform inventories of Tabs. II-III, the
// compile-time breakdown of Tab. IV, the cap-switch overhead study of
// Sec. VII-F and the duplicate-elimination study of footnote 17. Each
// experiment returns structured data and can render the paper-style rows.
//
// The sweeps fan out through the internal/parallel worker pool and share
// one stage cache and one nest-profile cache per Suite, compiling as the
// serving daemon does (core.CompilePipeline over the stage cache). Workers
// compute, the renderers print from index-ordered results, so output is
// byte-identical at any concurrency.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/journal"
	"polyufc/internal/parallel"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// Suite carries calibrated platforms and output configuration.
type Suite struct {
	Size workloads.SizeClass
	Out  io.Writer
	// Concurrency bounds the evaluation engine's worker pool: 0 (the
	// default) means GOMAXPROCS, 1 is the serial fallback.
	Concurrency int
	// Ctx, when set, cancels in-flight sweeps; nil means Background.
	Ctx context.Context
	// Degrade selects sweep-level fault tolerance: under core.BestEffort
	// a failing kernel is dropped from its figure with a degradation
	// summary line instead of killing the whole sweep, and compilations
	// degrade per nest.
	Degrade core.DegradePolicy
	// Faults, when non-nil, arms the injectable failure modes on every
	// machine and compilation the suite runs (core bypasses the stage
	// cache while armed).
	Faults *faults.Registry
	// Tiling selects the tile-stage strategy every sweep compiles with
	// (internal/tiling); the zero value is the paper's Pluto baseline, so
	// default sweeps stay byte-identical.
	Tiling tiling.Spec
	// Journal, when non-nil, checkpoints sweep progress per unit of work
	// (one kernel at one frequency for Fig. 1, one comparison row for
	// Fig. 7) so a killed sweep resumes instead of restarting: completed
	// entries replay from the journal and are not re-evaluated. Every
	// value rendered is the one decoded from the journaled bytes
	// (journal.Step), so replayed and recomputed units render
	// byte-identically, and units are keyed by what they computed
	// (unitKey), so one journal holds several configurations side by side.
	Journal *journal.Journal
	plats   []*hw.Platform
	targets map[string]*roofline.Target
	// stages memoizes per-stage compile snapshots across the sweep's
	// configurations: a configuration compiled again is a chain of stage
	// hits, and ablation runs that only vary downstream knobs (objective,
	// amortize factor) reuse the analysis prefix of the default
	// configuration. stageStats aggregates the stage events.
	stages     pipeline.Cache
	stageStats pipeline.Metrics
	profiles   hw.ProfileCache
	// calibrations memoizes each backend's roofline fit by description
	// hash: the 2-socket fits New, RenderCluster and RenderValidate ask
	// for are fitted once, and an edited description is fitted anew.
	calibrations parallel.Memo[string, *roofline.Target]
	mu           sync.Mutex
	notes        []string
}

// New builds a suite over both Table-III platforms, calibrating their
// rooflines once — concurrently, one worker per platform.
func New(size workloads.SizeClass, out io.Writer) (*Suite, error) {
	return NewBackends(size, out, platform.Paper())
}

// NewBackends builds a suite over an explicit backend set — any mix of
// embedded descriptions and registry entries loaded from platforms/*.json
// files — calibrating each one concurrently (Suite.calibrate).
func NewBackends(size workloads.SizeClass, out io.Writer, backends []*platform.Backend) (*Suite, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("experiments: no backends to evaluate")
	}
	s := &Suite{Size: size, Out: out, targets: map[string]*roofline.Target{}}
	targets, err := parallel.Map(context.Background(), len(backends), 0,
		func(ctx context.Context, i int) (*roofline.Target, error) {
			t, err := s.calibrate(ctx, backends[i])
			if err != nil {
				return nil, fmt.Errorf("experiments: calibrate %s: %w", backends[i].Name, err)
			}
			return t, nil
		})
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		s.plats = append(s.plats, t.Platform)
		s.targets[t.Platform.Name] = t
	}
	return s, nil
}

// calibrate resolves a backend through the suite's calibration memo.
func (s *Suite) calibrate(ctx context.Context, b *platform.Backend) (*roofline.Target, error) {
	return s.calibrations.Do(ctx, b.Hash(), func() (*roofline.Target, error) { return roofline.Resolve(b) })
}

// Platforms returns the suite's platforms.
func (s *Suite) Platforms() []*hw.Platform { return s.plats }

// Target returns the resolved backend handle for a platform.
func (s *Suite) Target(name string) *roofline.Target { return s.targets[name] }

// Constants returns the calibrated rooflines for a platform.
func (s *Suite) Constants(name string) *roofline.Constants {
	if t := s.targets[name]; t != nil {
		return t.Constants
	}
	return nil
}

// ProfileStats reports profile-cache hits and misses so far.
func (s *Suite) ProfileStats() (hits, misses int64) { return s.profiles.Stats() }

// StageCacheStats reports per-stage snapshot hits and misses so far.
func (s *Suite) StageCacheStats() (hits, misses int64) { return s.stages.Stats() }

// StageStats returns the aggregated pipeline stage events of the sweep:
// runs, snapshot hits, errors and total time per stage name.
func (s *Suite) StageStats() map[string]pipeline.StageStats { return s.stageStats.Snapshot() }

// StageNames returns the observed stage names sorted.
func (s *Suite) StageNames() []string { return s.stageStats.StageNames() }

// ResetCache drops all memoized stage snapshots and nest profiles (used
// by benchmarks to measure cold-sweep behaviour). The caches reset
// together, so a reset sweep compiles and simulates anew; calibrations
// are kept.
func (s *Suite) ResetCache() {
	s.stages.Reset()
	s.profiles.Reset()
}

// machine boots a Machine wired to the suite's shared profile cache, so
// every sweep worker reuses the exact-simulator profiles of the compiled
// nests instead of re-simulating them.
func (s *Suite) machine(p *hw.Platform) *hw.Machine {
	m := hw.NewMachine(p)
	m.SetProfileCache(&s.profiles)
	m.SetFaults(s.Faults)
	return m
}

// measuredKernel is one compiled kernel on a freshly booted suite machine
// with every nest profiled: the one way the experiments measure a
// compilation. Its views sum the nests' runs by hw.RunResult.Add.
type measuredKernel struct {
	res   *core.Result
	m     *hw.Machine
	profs []*hw.CacheProfile // one per nest, in module order
}

// measure compiles a kernel under cfg over the suite's stage cache, boots
// a fresh machine for cfg's platform and profiles every nest.
func (s *Suite) measure(kernel string, cfg core.Config) (*measuredKernel, error) {
	res, err := s.compile(kernel, cfg)
	if err != nil {
		return nil, err
	}
	k := &measuredKernel{res: res, m: s.machine(cfg.Target.Platform)}
	for _, f := range res.Module.Funcs {
		for _, op := range f.Ops {
			if nest, ok := op.(*ir.Nest); ok {
				prof, err := k.m.Profile(nest)
				if err != nil {
					return nil, err
				}
				k.profs = append(k.profs, prof)
			}
		}
	}
	return k, nil
}

// at caps the uncore at f through the driver and runs every profile in
// order: driver state and the RAPL counters move.
func (k *measuredKernel) at(f float64) hw.RunResult {
	k.m.SetUncoreCap(f)
	var agg hw.RunResult
	for _, p := range k.profs {
		agg.Add(k.m.Measure(p))
	}
	return agg
}

// atJoint runs every profile at core clock fc and uncore clock fu without
// touching driver state or the counters.
func (k *measuredKernel) atJoint(fc, fu float64) hw.RunResult {
	var agg hw.RunResult
	for _, p := range k.profs {
		agg.Add(k.m.MeasureAt(p, fc, fu))
	}
	return agg
}

// characterized fails on a compilation with a nest that best-effort left
// without a cache model: there is no estimate to compare or model to build.
func characterized(res *core.Result) error {
	for i, rep := range res.Reports {
		if rep.CM == nil {
			return fmt.Errorf("nest %d has no cache model (%v)", i, rep.Err)
		}
	}
	return nil
}

// sweepKernels is the per-kernel driver of the pooled experiments: row(i)
// computes kernels[i]'s row on the worker pool, and rows come back in
// input order. Under best-effort a failing kernel is noted for the
// degradation summary and comes back as degraded(i); otherwise its error
// ends the sweep.
func sweepKernels[R any](s *Suite, exp string, kernels []string, row func(i int) (R, error), degraded func(i int) R) ([]R, error) {
	return parallel.Map(s.ctx(), len(kernels), s.Concurrency, func(_ context.Context, i int) (R, error) {
		r, err := row(i)
		if err == nil {
			return r, nil
		}
		if s.bestEffort() {
			s.noteDegraded(kernels[i], err)
			return degraded(i), nil
		}
		return r, fmt.Errorf("%s %s: %w", exp, kernels[i], err)
	})
}

// bestEffort reports whether sweeps tolerate per-kernel failures.
func (s *Suite) bestEffort() bool { return s.Degrade == core.BestEffort }

// unitKey is the journal identity of one sweep unit of experiment exp:
// core.CacheKey.UnitKey over the identity of the compilation the unit
// measures, so a journal resumed under another size, tiling, calibration,
// description or degrade policy misses and recomputes instead of
// answering for the wrong run.
func (s *Suite) unitKey(exp, kernel string, p *hw.Platform) string {
	return core.KeyOf(kernel, int(s.Size), s.sweepConfig(core.DefaultConfig(s.targets[p.Name]))).UnitKey(exp)
}

// noteDegraded records one tolerated per-kernel failure for the
// experiment's degradation summary.
func (s *Suite) noteDegraded(kernel string, err error) {
	s.mu.Lock()
	s.notes = append(s.notes, fmt.Sprintf("%s: %v", kernel, err))
	s.mu.Unlock()
}

// drainNotes returns the recorded degradations sorted (workers race) and
// clears them for the next experiment.
func (s *Suite) drainNotes() []string {
	s.mu.Lock()
	out := s.notes
	s.notes = nil
	s.mu.Unlock()
	sort.Strings(out)
	return out
}

// renderDegraded prints the degradation summary lines of one experiment.
func (s *Suite) renderDegraded() {
	for _, line := range s.drainNotes() {
		s.printf("   degraded (best-effort): %s\n", line)
	}
}

// ctx resolves the suite context.
func (s *Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

func (s *Suite) printf(format string, args ...interface{}) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// compile builds one kernel and PolyUFC-compiles it under any of the
// evaluation's configurations over the suite's stage cache, as the daemon
// compiles a request: a configuration compiled before is a chain of stage
// hits. core bypasses the stage cache while faults are armed.
func (s *Suite) compile(kernelName string, cfg core.Config) (*core.Result, error) {
	k, err := workloads.ByName(kernelName)
	if err != nil {
		return nil, err
	}
	mod, err := k.Build(s.Size)
	if err != nil {
		return nil, err
	}
	opts := core.PipelineOptions{Stages: &s.stages, Observe: s.stageStats.Observe}
	return core.CompilePipeline(s.ctx(), mod, s.sweepConfig(cfg), opts)
}

// sweepConfig stamps the suite-wide settings onto one of the evaluation's
// configurations: the degrade policy, the fault registry and — unless the
// experiment pinned its own — the tiling strategy.
func (s *Suite) sweepConfig(cfg core.Config) core.Config {
	cfg.Degrade = s.Degrade
	cfg.Faults = s.Faults
	if cfg.Tiling == (tiling.Spec{}) {
		cfg.Tiling = s.Tiling
	}
	return cfg
}

// dominant returns the report of the nest with the most flops, whose
// characterization and cap stand for the kernel, among the nests that were
// characterized (a per-nest degraded report carries no cache model); ok is
// false when none was.
func dominant(reports []core.KernelReport) (rep core.KernelReport, ok bool) {
	for _, r := range reports {
		if r.CM != nil && (!ok || r.CM.Flops > rep.CM.Flops) {
			rep, ok = r, true
		}
	}
	return rep, ok
}

// Run executes one experiment by id and renders it.
func (s *Suite) Run(id string) error {
	switch id {
	case "fig1":
		return s.RenderFig1()
	case "fig5":
		return s.RenderFig5()
	case "fig6":
		return s.RenderFig6()
	case "fig7":
		return s.RenderFig7()
	case "fig8":
		return s.RenderFig8()
	case "tab1":
		return s.RenderTab1()
	case "tab2":
		return s.RenderTab2()
	case "tab3":
		return s.RenderTab3()
	case "tab4":
		return s.RenderTab4()
	case "overhead":
		return s.RenderOverhead()
	case "dedup":
		return s.RenderDedup()
	case "dufs":
		return s.RenderDUFS()
	case "joint":
		return s.RenderJoint()
	case "cluster":
		return s.RenderCluster()
	case "tilesize":
		return s.RenderTileSize()
	case "tiling":
		return s.RenderTiling()
	case "valid":
		return s.RenderValidate()
	case "all":
		for _, e := range ExperimentIDs() {
			if e == "all" {
				continue
			}
			if err := s.Run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	return fmt.Errorf("experiments: unknown experiment %q (want one of %v)", id, ExperimentIDs())
}

// ExperimentIDs lists the available experiments.
func ExperimentIDs() []string {
	ids := []string{"fig1", "fig5", "fig6", "fig7", "fig8",
		"tab1", "tab2", "tab3", "tab4", "overhead", "dedup", "dufs", "joint",
		"cluster", "tilesize", "tiling", "valid", "all"}
	sort.Strings(ids)
	return ids
}
