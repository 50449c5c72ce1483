package experiments

import (
	"fmt"
	"math"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/journal"
	"polyufc/internal/model"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// --- Fig. 1: time/energy/EDP vs uncore frequency --------------------------

// Fig1Point is one frequency sample of one kernel.
type Fig1Point struct {
	FGHz    float64
	Seconds float64
	Joules  float64
	EDP     float64
}

// Fig1Series is the sweep of one kernel on one platform.
type Fig1Series struct {
	Kernel     string
	Platform   string
	Points     []Fig1Point
	BestTime   float64 // argmin frequencies
	BestEnergy float64
	BestEDP    float64
	// Degraded marks a kernel dropped under best-effort tolerance; only
	// Kernel and Platform are meaningful then.
	Degraded bool
}

// Fig1Kernels are the representative kernels of Fig. 1.
var Fig1Kernels = []string{"conv2d-alexnet", "2mm", "gemver", "mvt"}

// Fig1 sweeps each representative kernel over the platform's uncore range
// on Pluto-optimized code, as in the paper's motivation figure. Kernels
// sweep concurrently on the worker pool; the series come back in
// Fig1Kernels order. With a Journal attached, every (kernel, frequency)
// point checkpoints as it completes and a resumed sweep replays the
// completed points — compilation and profiling are skipped entirely for
// kernels whose points are all journaled.
func (s *Suite) Fig1(p *hw.Platform) ([]Fig1Series, error) {
	return sweepKernels(s, "fig1", Fig1Kernels, func(i int) (Fig1Series, error) {
		name := Fig1Kernels[i]
		series := Fig1Series{Kernel: name, Platform: p.Name}
		// Compile and profile lazily: a fully journaled kernel never
		// touches the compiler or the simulator on resume.
		var k *measuredKernel
		key := s.unitKey("fig1", name, p)
		for _, f := range p.UncoreSteps() {
			// %g prints the grid point exactly (hw.GridPoint snaps to three
			// decimals), so neighbours on a 0.05 GHz grid never share a key.
			pt, _, err := journal.Step(s.Journal, fmt.Sprintf("%s/f%g", key, f),
				func() (Fig1Point, error) {
					if k == nil {
						var err error
						if k, err = s.measure(name, core.DefaultConfig(s.targets[p.Name])); err != nil {
							return Fig1Point{}, err
						}
					}
					r := k.at(f)
					return Fig1Point{FGHz: f, Seconds: r.Seconds, Joules: r.PkgJoules, EDP: r.EDP}, nil
				})
			if err != nil {
				return Fig1Series{}, err
			}
			series.Points = append(series.Points, pt)
		}
		series.BestTime = argmin(series.Points, func(p Fig1Point) float64 { return p.Seconds }).FGHz
		series.BestEnergy = argmin(series.Points, func(p Fig1Point) float64 { return p.Joules }).FGHz
		series.BestEDP = argmin(series.Points, func(p Fig1Point) float64 { return p.EDP }).FGHz
		return series, nil
	}, func(i int) Fig1Series {
		return Fig1Series{Kernel: Fig1Kernels[i], Platform: p.Name, Degraded: true}
	})
}

// argmin returns the point val is smallest at (the first on a tie).
func argmin[P any](pts []P, val func(P) float64) P {
	best := pts[0]
	for _, p := range pts {
		if val(p) < val(best) {
			best = p
		}
	}
	return best
}

// RenderFig1 prints the sweeps for both platforms.
func (s *Suite) RenderFig1() error {
	s.printf("== Fig. 1: exec time, energy, EDP across uncore frequency caps (Pluto-tiled) ==\n")
	for _, p := range s.plats {
		series, err := s.Fig1(p)
		if err != nil {
			return err
		}
		for _, sr := range series {
			if sr.Degraded {
				continue
			}
			s.printf("-- %s on %s (best: time@%.1f energy@%.1f EDP@%.1f GHz)\n",
				sr.Kernel, sr.Platform, sr.BestTime, sr.BestEnergy, sr.BestEDP)
			s.printf("   f(GHz)   time(ms)   energy(J)    EDP(mJ*s)\n")
			for _, pt := range sr.Points {
				s.printf("   %5.1f   %8.3f   %9.4f   %10.5f\n",
					pt.FGHz, pt.Seconds*1e3, pt.Joules, pt.EDP*1e3)
			}
		}
		s.renderDegraded()
	}
	return nil
}

// --- Fig. 5: phase changes across dialects ---------------------------------

// phaseStudy runs the Fig. 5 phase-change study of sdpa (BERT) on p
// under a tiling spec (the zero spec is the compile default).
func (s *Suite) phaseStudy(p *hw.Platform, spec tiling.Spec) (map[ir.Dialect][]core.Phase, error) {
	k, err := workloads.ByName("sdpa-bert")
	if err != nil {
		return nil, err
	}
	mod, err := k.Build(s.Size)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(s.targets[p.Name])
	cfg.Tiling = spec
	return core.PhaseStudy(mod, cfg)
}

// RenderFig5 prints the sdpa phase-change study.
func (s *Suite) RenderFig5() error {
	p := s.plats[1] // RPL
	phases, err := s.phaseStudy(p, tiling.Spec{})
	if err != nil {
		return err
	}
	s.printf("== Fig. 5: CB/BB phase changes of sdpa (BERT) across dialects on %s ==\n", p.Name)
	for _, lvl := range []ir.Dialect{ir.DialectTorch, ir.DialectLinalg, ir.DialectAffine} {
		s.printf("-- %s:\n", lvl)
		for _, ph := range phases[lvl] {
			s.printf("   %-44s %s (OI %.2f FpB)\n", ph.Op, ph.Class, ph.OI)
		}
	}
	return nil
}

// Fig5Pattern returns the linalg-level class sequence as a string like
// "CB BB BB BB BB BB BB BB CB".
func (s *Suite) Fig5Pattern() (string, error) {
	phases, err := s.phaseStudy(s.plats[1], tiling.Spec{})
	if err != nil {
		return "", err
	}
	return phasePattern(phases[ir.DialectLinalg]), nil
}

// --- Fig. 6: roofline characterization --------------------------------------

// Fig6Row is one kernel's characterization vs hardware.
type Fig6Row struct {
	Kernel   string
	Platform string
	Category string
	OI       float64
	Class    roofline.Class
	// Est and HW performance (GFlop/s) and average power (W) at max
	// uncore frequency.
	EstGFlops, HWGFlops float64
	EstWatts, HWWatts   float64
	// HWClass derives from measured traffic; Correct reports agreement.
	HWClass roofline.Class
	Correct bool
	// Degraded marks a kernel dropped under best-effort tolerance.
	Degraded bool
}

// modelVsMachine is one kernel's model-vs-machine pass at the driver
// default, shared by Fig. 6 and the validation study: the Sec. V
// estimates and PolyUFC-CM's counts summed over the nests, beside the
// machine's run of the same nests at the maximum uncore frequency.
type modelVsMachine struct {
	estSec, estJ float64
	hw           hw.RunResult
	flops, qdram int64
	// qdramHW is the simulator's DRAM traffic, divided per nest by the
	// same thread share as PolyUFC-CM's QDRAM.
	qdramHW int64
}

// compareModel runs the pass for one kernel on a resolved target. A
// kernel with a nest best-effort left without a cache model has no
// estimate to compare and fails the pass.
func (s *Suite) compareModel(kernel string, t *roofline.Target) (modelVsMachine, error) {
	var v modelVsMachine
	k, err := s.measure(kernel, core.DefaultConfig(t))
	if err != nil {
		return v, err
	}
	if err := characterized(k.res); err != nil {
		return v, err
	}
	for i, rep := range k.res.Reports {
		v.estSec += rep.EstDefault.Seconds
		v.estJ += rep.EstDefault.Joules
		v.flops += rep.CM.Flops
		v.qdram += rep.CM.QDRAM
		v.qdramHW += k.profs[i].QDRAM / int64(max(rep.CM.ThreadsDiv, 1))
	}
	v.hw = k.at(t.Platform.UncoreMax)
	return v, nil
}

// Fig6 characterizes the given kernels on a platform and validates against
// hardware measurements. One worker per kernel; rows return in input order.
func (s *Suite) Fig6(p *hw.Platform, kernels []string) ([]Fig6Row, error) {
	c := s.Constants(p.Name)
	return sweepKernels(s, "fig6", kernels, func(i int) (Fig6Row, error) {
		name := kernels[i]
		k, err := workloads.ByName(name)
		if err != nil {
			return Fig6Row{}, err
		}
		v, err := s.compareModel(name, s.targets[p.Name])
		if err != nil {
			return Fig6Row{}, err
		}
		oi := 0.0
		if v.qdram > 0 {
			oi = float64(v.flops) / float64(v.qdram)
		}
		hwOI := math.Inf(1)
		if v.qdramHW > 0 {
			hwOI = float64(v.flops) / float64(v.qdramHW)
		}
		row := Fig6Row{
			Kernel: name, Platform: p.Name, Category: k.Category,
			OI: oi, Class: c.Classify(oi),
			EstGFlops: float64(v.flops) / v.estSec / 1e9, HWGFlops: float64(v.flops) / v.hw.Seconds / 1e9,
			EstWatts: v.estJ / v.estSec, HWWatts: v.hw.AvgWatts,
			HWClass: c.Classify(hwOI),
		}
		row.Correct = row.Class == row.HWClass
		return row, nil
	}, func(i int) Fig6Row {
		return Fig6Row{Kernel: kernels[i], Platform: p.Name, Degraded: true}
	})
}

// RenderFig6 prints the ML kernels on both platforms and PolyBench on RPL.
func (s *Suite) RenderFig6() error {
	s.printf("== Fig. 6: performance & power characterization (estimated vs hardware) ==\n")
	mlNames := []string{"conv2d-convnext", "sdpa-bert", "lm-head-llama2"}
	for _, p := range s.plats {
		rows, err := s.Fig6(p, mlNames)
		if err != nil {
			return err
		}
		s.printf("-- ML kernels on %s\n", p.Name)
		s.renderFig6Rows(rows)
		s.renderDegraded()
	}
	var pbNames []string
	for _, k := range workloads.PolyBench() {
		pbNames = append(pbNames, k.Name)
	}
	rows, err := s.Fig6(s.plats[1], pbNames)
	if err != nil {
		return err
	}
	s.printf("-- PolyBench on RPL\n")
	s.renderFig6Rows(rows)
	correct, total := 0, 0
	for _, r := range rows {
		if r.Degraded {
			continue
		}
		total++
		if r.Correct {
			correct++
		}
	}
	s.printf("   classification agreement: %d/%d\n", correct, total)
	s.renderDegraded()
	return nil
}

func (s *Suite) renderFig6Rows(rows []Fig6Row) {
	s.printf("   %-18s %-12s %8s %4s | est %8s HW %8s | est %6s HW %6s | %s\n",
		"kernel", "category", "OI(FpB)", "cls", "GF/s", "GF/s", "W", "W", "agree")
	for _, r := range rows {
		if r.Degraded {
			continue
		}
		s.printf("   %-18s %-12s %8.2f %4s | %12.1f %11.1f | %10.1f %9.1f | %v\n",
			r.Kernel, r.Category, r.OI, r.Class, r.EstGFlops, r.HWGFlops,
			r.EstWatts, r.HWWatts, r.Correct)
	}
}

// --- Fig. 7: time/energy/EDP vs the UFS-driver baseline --------------------

// Fig7Row is one kernel's improvement over the baseline.
type Fig7Row struct {
	Kernel   string
	Suite    string
	Platform string
	Class    roofline.Class
	CapGHz   float64 // cap of the dominant (largest) nest
	// Relative improvements (positive = better than baseline).
	TimeGain, EnergyGain, EDPGain float64
	BaselineEDP, PolyUFCEDP       float64
	// Degraded marks a kernel dropped under best-effort tolerance.
	Degraded bool
}

// Fig7 compares PolyUFC-capped execution against the Pluto + default-UFS
// baseline for the given kernels on one platform. Kernels run concurrently
// on the worker pool; rows return in input order. With a Journal attached,
// each completed row checkpoints and a resumed sweep replays it without
// recompiling or re-measuring the kernel.
func (s *Suite) Fig7(p *hw.Platform, kernels []string) ([]Fig7Row, error) {
	return sweepKernels(s, "fig7", kernels, func(i int) (Fig7Row, error) {
		row, _, err := journal.Step(s.Journal, s.unitKey("fig7", kernels[i], p), func() (Fig7Row, error) {
			return s.fig7Row(p, kernels[i])
		})
		return row, err
	}, func(i int) Fig7Row {
		return Fig7Row{Kernel: kernels[i], Platform: p.Name, Degraded: true}
	})
}

// fig7Row computes one kernel's baseline-vs-capped comparison.
func (s *Suite) fig7Row(p *hw.Platform, name string) (Fig7Row, error) {
	kernel, err := workloads.ByName(name)
	if err != nil {
		return Fig7Row{}, err
	}
	k, err := s.measure(name, core.DefaultConfig(s.targets[p.Name]))
	if err != nil {
		return Fig7Row{}, err
	}
	base := k.at(p.UncoreMax)
	// Repeat the program so each measurement covers at least ~20 ms of
	// steady-state execution: small simulated problem sizes would
	// otherwise be dominated by the one-time cap-switch latency, which
	// real workloads (PolyBench LARGE, model inference loops) amortize.
	// Re-switching between per-nest caps on every repetition is still
	// charged, as in real serving.
	reps := 1
	if base.Seconds > 0 {
		reps = int(0.020/base.Seconds) + 1
	}
	if reps > 1000 {
		reps = 1000
	}
	base.Scale(float64(reps))

	f := k.res.Module.Funcs[0]
	repeated := &ir.Func{Name: f.Name}
	for r := 0; r < reps; r++ {
		repeated.Ops = append(repeated.Ops, f.Ops...)
	}
	k.m.ResetCounters()
	capped, err := k.m.RunFunc(repeated)
	if err != nil {
		return Fig7Row{}, err
	}
	rep, _ := dominant(k.res.Reports)
	return Fig7Row{
		Kernel: name, Suite: kernel.Suite, Platform: p.Name,
		Class: rep.Class, CapGHz: rep.CapGHz,
		TimeGain:    1 - capped.Seconds/base.Seconds,
		EnergyGain:  1 - capped.PkgJoules/base.PkgJoules,
		EDPGain:     1 - capped.EDP/base.EDP,
		BaselineEDP: base.EDP, PolyUFCEDP: capped.EDP,
	}, nil
}

// GeomeanEDPGain returns the geometric-mean EDP improvement of the rows.
func GeomeanEDPGain(rows []Fig7Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	logSum, n := 0.0, 0
	for _, r := range rows {
		if r.Degraded || r.BaselineEDP <= 0 {
			continue
		}
		n++
		ratio := r.PolyUFCEDP / r.BaselineEDP
		if ratio <= 0 {
			ratio = 1
		}
		logSum += math.Log(ratio)
	}
	if n == 0 {
		return 0
	}
	return 1 - math.Exp(logSum/float64(n))
}

// RenderFig7 prints the comparison for both platforms over the full suite.
func (s *Suite) RenderFig7() error {
	s.printf("== Fig. 7: time, energy, EDP vs Pluto + default UFS driver ==\n")
	var names []string
	for _, k := range workloads.All() {
		names = append(names, k.Name)
	}
	for _, p := range s.plats {
		rows, err := s.Fig7(p, names)
		if err != nil {
			return err
		}
		s.printf("-- %s\n", p.Name)
		s.printf("   %-18s %4s cap(GHz) | time%% energy%% EDP%%\n", "kernel", "cls")
		var pbRows []Fig7Row
		for _, r := range rows {
			if r.Degraded {
				continue
			}
			s.printf("   %-18s %4s   %5.1f  | %+5.1f  %+5.1f  %+5.1f\n",
				r.Kernel, r.Class, r.CapGHz,
				100*r.TimeGain, 100*r.EnergyGain, 100*r.EDPGain)
			if r.Suite == "polybench" {
				pbRows = append(pbRows, r)
			}
		}
		s.printf("   PolyBench geomean EDP improvement: %.1f%%\n", 100*GeomeanEDPGain(pbRows))
		s.renderDegraded()
	}
	return nil
}

// --- Fig. 8: set- vs fully-associative EDP estimation ----------------------

// Fig8Point is one frequency sample of the three series.
type Fig8Point struct {
	FGHz                      float64
	EDPSetAssoc, EDPFullAssoc float64 // model estimates
	EDPHW                     float64 // measured
}

// Fig8Result is one kernel/platform study.
type Fig8Result struct {
	Kernel, Platform                    string
	Points                              []Fig8Point
	BestSetAssoc, BestFullAssoc, BestHW float64 // argmin frequencies
	// ErrSetAssoc/ErrFullAssoc are the mean absolute relative EDP errors
	// of each model against hardware across the sweep: the quantitative
	// version of the paper's "set associativity yields the better EDP
	// estimate" claim.
	ErrSetAssoc, ErrFullAssoc float64
	// Degraded marks a study dropped under best-effort tolerance.
	Degraded bool
}

// Fig8 compares EDP estimates under the set-associative and fully-
// associative PolyUFC-CM configurations against hardware over the uncore
// range.
func (s *Suite) Fig8(kernelName string, p *hw.Platform) (*Fig8Result, error) {
	// The set-associative configuration is the default one, so its
	// compile is also the one the machine runs.
	cfg := core.DefaultConfig(s.targets[p.Name])
	k, err := s.measure(kernelName, cfg)
	if err != nil {
		return nil, err
	}
	cfg.FullyAssoc = true
	fa, err := s.compile(kernelName, cfg)
	if err != nil {
		return nil, err
	}
	saModels, err := s.models(k.res, p)
	if err != nil {
		return nil, err
	}
	faModels, err := s.models(fa, p)
	if err != nil {
		return nil, err
	}
	// estEDP is the models' EDP estimate at f, summed over the nests.
	estEDP := func(ms []*model.Model, f float64) float64 {
		var t, e float64
		for _, m := range ms {
			est := m.At(f)
			t += est.Seconds
			e += est.Joules
		}
		return t * e
	}
	out := &Fig8Result{Kernel: kernelName, Platform: p.Name}
	for _, f := range p.UncoreSteps() {
		out.Points = append(out.Points, Fig8Point{
			FGHz:         f,
			EDPSetAssoc:  estEDP(saModels, f),
			EDPFullAssoc: estEDP(faModels, f),
			EDPHW:        k.at(f).EDP,
		})
	}
	out.BestSetAssoc = argmin(out.Points, func(p Fig8Point) float64 { return p.EDPSetAssoc }).FGHz
	out.BestFullAssoc = argmin(out.Points, func(p Fig8Point) float64 { return p.EDPFullAssoc }).FGHz
	out.BestHW = argmin(out.Points, func(p Fig8Point) float64 { return p.EDPHW }).FGHz
	for _, pt := range out.Points {
		out.ErrSetAssoc += math.Abs(pt.EDPSetAssoc-pt.EDPHW) / pt.EDPHW
		out.ErrFullAssoc += math.Abs(pt.EDPFullAssoc-pt.EDPHW) / pt.EDPHW
	}
	out.ErrSetAssoc /= float64(len(out.Points))
	out.ErrFullAssoc /= float64(len(out.Points))
	return out, nil
}

// models builds one Sec. V model per nest of a compilation from its
// PolyUFC-CM counts.
func (s *Suite) models(res *core.Result, p *hw.Platform) ([]*model.Model, error) {
	if err := characterized(res); err != nil {
		return nil, err
	}
	var ms []*model.Model
	for _, rep := range res.Reports {
		ms = append(ms, model.New(s.Constants(p.Name), model.FromCacheModel(rep.CM, rep.Threads)))
	}
	return ms, nil
}

// RenderFig8 prints the gemm-on-BDW and 2mm-on-RPL studies of the paper.
// The two case studies run concurrently; rendering follows in case order.
func (s *Suite) RenderFig8() error {
	s.printf("== Fig. 8: EDP estimates, set- vs fully-associative PolyUFC-CM vs HW ==\n")
	kernels := []string{"gemm-pow2", "2mm-pow2"}
	plats := s.plats[:2]
	results, err := sweepKernels(s, "fig8", kernels, func(i int) (*Fig8Result, error) {
		return s.Fig8(kernels[i], plats[i])
	}, func(i int) *Fig8Result {
		return &Fig8Result{Kernel: kernels[i], Platform: plats[i].Name, Degraded: true}
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Degraded {
			continue
		}
		s.printf("-- %s on %s (argmin EDP: set-assoc %.1f, fully-assoc %.1f, HW %.1f GHz)\n",
			r.Kernel, r.Platform, r.BestSetAssoc, r.BestFullAssoc, r.BestHW)
		s.printf("   mean |EDP err| vs HW: set-assoc %.1f%%, fully-assoc %.1f%%\n",
			100*r.ErrSetAssoc, 100*r.ErrFullAssoc)
		s.printf("   f(GHz)  EDP set-assoc  EDP fully-assoc  EDP HW (mJ*s)\n")
		for _, pt := range r.Points {
			s.printf("   %5.1f  %13.5f  %15.5f  %10.5f\n",
				pt.FGHz, pt.EDPSetAssoc*1e3, pt.EDPFullAssoc*1e3, pt.EDPHW*1e3)
		}
	}
	s.renderDegraded()
	return nil
}
