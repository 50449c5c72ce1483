package experiments

import (
	"context"
	"fmt"
	"math"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/journal"
	"polyufc/internal/model"
	"polyufc/internal/parallel"
	"polyufc/internal/roofline"
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
	return parallel.Map(s.ctx(), len(Fig1Kernels), s.Concurrency,
		func(_ context.Context, i int) (Fig1Series, error) {
			name := Fig1Kernels[i]
			series := Fig1Series{Kernel: name, Platform: p.Name}
			// Compile and profile lazily: a fully journaled kernel never
			// touches the compiler or the simulator on resume.
			var m *hw.Machine
			var profs []*hw.CacheProfile
			ensure := func() error {
				if m != nil {
					return nil
				}
				res, err := s.compile(name, p)
				if err != nil {
					return err
				}
				mm := s.machine(p)
				for _, nest := range nestsOf(res.Module) {
					prof, err := mm.Profile(nest)
					if err != nil {
						return err
					}
					profs = append(profs, prof)
				}
				m = mm
				return nil
			}
			key := s.unitKey("fig1", name, p)
			for _, f := range p.UncoreSteps() {
				// %g prints the grid point exactly (hw.GridPoint snaps to three
				// decimals), so neighbours on a 0.05 GHz grid never share a key.
				pt, _, err := journal.Step(s.Journal, fmt.Sprintf("%s/f%g", key, f),
					func() (Fig1Point, error) {
						if err := ensure(); err != nil {
							return Fig1Point{}, err
						}
						pt := Fig1Point{FGHz: f}
						m.SetUncoreCap(f)
						for _, prof := range profs {
							r := m.Measure(prof)
							pt.Seconds += r.Seconds
							pt.Joules += r.PkgJoules
						}
						pt.EDP = pt.Seconds * pt.Joules
						return pt, nil
					})
				if err != nil {
					if s.bestEffort() {
						s.noteDegraded(name, err)
						return Fig1Series{Kernel: name, Platform: p.Name, Degraded: true}, nil
					}
					return Fig1Series{}, fmt.Errorf("fig1 %s: %w", name, err)
				}
				series.Points = append(series.Points, pt)
			}
			series.BestTime = argminF(series.Points, func(p Fig1Point) float64 { return p.Seconds })
			series.BestEnergy = argminF(series.Points, func(p Fig1Point) float64 { return p.Joules })
			series.BestEDP = argminF(series.Points, func(p Fig1Point) float64 { return p.EDP })
			return series, nil
		})
}

func argminF(pts []Fig1Point, val func(Fig1Point) float64) float64 {
	best := pts[0]
	for _, p := range pts {
		if val(p) < val(best) {
			best = p
		}
	}
	return best.FGHz
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
	}
	s.renderDegraded()
	return nil
}

// --- Fig. 5: phase changes across dialects ---------------------------------

// RenderFig5 prints the sdpa phase-change study.
func (s *Suite) RenderFig5() error {
	p := s.plats[1] // RPL
	k, err := workloads.ByName("sdpa-bert")
	if err != nil {
		return err
	}
	mod, err := k.Build(s.Size)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(s.targets[p.Name])
	phases, err := core.PhaseStudy(mod, cfg)
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
	p := s.plats[1]
	k, err := workloads.ByName("sdpa-bert")
	if err != nil {
		return "", err
	}
	mod, err := k.Build(s.Size)
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(s.targets[p.Name])
	phases, err := core.PhaseStudy(mod, cfg)
	if err != nil {
		return "", err
	}
	out := ""
	for i, ph := range phases[ir.DialectLinalg] {
		if i > 0 {
			out += " "
		}
		out += ph.Class.String()
	}
	return out, nil
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

// Fig6 characterizes the given kernels on a platform and validates against
// hardware measurements. One worker per kernel; rows return in input order.
func (s *Suite) Fig6(p *hw.Platform, kernels []string) ([]Fig6Row, error) {
	c := s.Constants(p.Name)
	return parallel.Map(s.ctx(), len(kernels), s.Concurrency,
		func(_ context.Context, idx int) (Fig6Row, error) {
			name := kernels[idx]
			k, err := workloads.ByName(name)
			if err != nil {
				return Fig6Row{}, err
			}
			res, err := s.compile(name, p)
			if err != nil {
				if s.bestEffort() {
					s.noteDegraded(name, err)
					return Fig6Row{Kernel: name, Platform: p.Name, Degraded: true}, nil
				}
				return Fig6Row{}, fmt.Errorf("fig6 %s: %w", name, err)
			}
			// Aggregate model estimates and hardware runs at max frequency.
			m := s.machine(p)
			m.SetUncoreCap(p.UncoreMax)
			var estT, hwT, estE, hwE float64
			var flops, qdram, qdramHW int64
			for i, nest := range nestsOf(res.Module) {
				rep := res.Reports[i]
				est := rep.EstDefault
				estT += est.Seconds
				estE += est.Joules
				flops += rep.CM.Flops
				qdram += rep.CM.QDRAM
				r, err := m.RunNest(nest)
				if err != nil {
					return Fig6Row{}, err
				}
				hwT += r.Seconds
				hwE += r.PkgJoules
				prof, _ := m.Profile(nest)
				qdramHW += prof.QDRAM / int64(max(rep.CM.ThreadsDiv, 1))
			}
			oi := 0.0
			if qdram > 0 {
				oi = float64(flops) / float64(qdram)
			}
			hwOI := math.Inf(1)
			if qdramHW > 0 {
				hwOI = float64(flops) / float64(qdramHW)
			}
			row := Fig6Row{
				Kernel: name, Platform: p.Name, Category: k.Category,
				OI: oi, Class: c.Classify(oi),
				EstGFlops: float64(flops) / estT / 1e9, HWGFlops: float64(flops) / hwT / 1e9,
				EstWatts: estE / estT, HWWatts: hwE / hwT,
				HWClass: c.Classify(hwOI),
			}
			row.Correct = row.Class == row.HWClass
			return row, nil
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
	return parallel.Map(s.ctx(), len(kernels), s.Concurrency, func(_ context.Context, idx int) (Fig7Row, error) {
		name := kernels[idx]
		row, _, err := journal.Step(s.Journal, s.unitKey("fig7", name, p), func() (Fig7Row, error) {
			return s.fig7Row(p, name)
		})
		if err != nil {
			if s.bestEffort() {
				s.noteDegraded(name, err)
				return Fig7Row{Kernel: name, Platform: p.Name, Degraded: true}, nil
			}
			return Fig7Row{}, fmt.Errorf("fig7 %s: %w", name, err)
		}
		return row, nil
	})
}

// fig7Row computes one kernel's baseline-vs-capped comparison.
func (s *Suite) fig7Row(p *hw.Platform, name string) (Fig7Row, error) {
	drop := func(err error) (Fig7Row, error) { return Fig7Row{}, err }
	k, err := workloads.ByName(name)
	if err != nil {
		return drop(err)
	}
	res, err := s.compile(name, p)
	if err != nil {
		return drop(err)
	}
	m := s.machine(p)
	base, err := m.RunBaseline(res.Module.Funcs...)
	if err != nil {
		return drop(err)
	}
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
	base.Seconds *= float64(reps)
	base.PkgJoules *= float64(reps)
	base.EDP = base.PkgJoules * base.Seconds

	repeated := &ir.Func{Name: res.Module.Funcs[0].Name}
	for r := 0; r < reps; r++ {
		repeated.Ops = append(repeated.Ops, res.Module.Funcs[0].Ops...)
	}
	m.ResetCounters()
	capped, err := m.RunFunc(repeated)
	if err != nil {
		return drop(err)
	}
	rep, _ := dominant(res.Reports)
	return Fig7Row{
		Kernel: name, Suite: k.Suite, Platform: p.Name,
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
}

// Fig8 compares EDP estimates under the set-associative and fully-
// associative PolyUFC-CM configurations against hardware over the uncore
// range.
func (s *Suite) Fig8(kernelName string, p *hw.Platform) (*Fig8Result, error) {
	build := func(fullyAssoc bool) ([]*model.Model, error) {
		cfg := core.DefaultConfig(s.targets[p.Name])
		cfg.FullyAssoc = fullyAssoc
		res, err := s.compileCfg(kernelName, cfg)
		if err != nil {
			return nil, err
		}
		var ms []*model.Model
		for _, rep := range res.Reports {
			ms = append(ms, model.New(s.Constants(p.Name), model.FromCacheModel(rep.CM, rep.Threads)))
		}
		return ms, nil
	}
	saModels, err := build(false)
	if err != nil {
		return nil, err
	}
	faModels, err := build(true)
	if err != nil {
		return nil, err
	}
	// Hardware series from the default compilation's nests (a cache hit:
	// it shares the set-associative configuration above).
	res, err := s.compile(kernelName, p)
	if err != nil {
		return nil, err
	}
	m := s.machine(p)
	var profs []*hw.CacheProfile
	for _, nest := range nestsOf(res.Module) {
		prof, err := m.Profile(nest)
		if err != nil {
			return nil, err
		}
		profs = append(profs, prof)
	}
	out := &Fig8Result{Kernel: kernelName, Platform: p.Name}
	for _, f := range p.UncoreSteps() {
		var pt Fig8Point
		pt.FGHz = f
		var saT, saE, faT, faE float64
		for _, mm := range saModels {
			e := mm.At(f)
			saT += e.Seconds
			saE += e.Joules
		}
		for _, mm := range faModels {
			e := mm.At(f)
			faT += e.Seconds
			faE += e.Joules
		}
		pt.EDPSetAssoc = saT * saE
		pt.EDPFullAssoc = faT * faE
		m.SetUncoreCap(f)
		var hwT, hwE float64
		for _, prof := range profs {
			r := m.Measure(prof)
			hwT += r.Seconds
			hwE += r.PkgJoules
		}
		pt.EDPHW = hwT * hwE
		out.Points = append(out.Points, pt)
	}
	out.BestSetAssoc = argminFig8(out.Points, func(p Fig8Point) float64 { return p.EDPSetAssoc })
	out.BestFullAssoc = argminFig8(out.Points, func(p Fig8Point) float64 { return p.EDPFullAssoc })
	out.BestHW = argminFig8(out.Points, func(p Fig8Point) float64 { return p.EDPHW })
	for _, pt := range out.Points {
		out.ErrSetAssoc += math.Abs(pt.EDPSetAssoc-pt.EDPHW) / pt.EDPHW
		out.ErrFullAssoc += math.Abs(pt.EDPFullAssoc-pt.EDPHW) / pt.EDPHW
	}
	out.ErrSetAssoc /= float64(len(out.Points))
	out.ErrFullAssoc /= float64(len(out.Points))
	return out, nil
}

func argminFig8(pts []Fig8Point, val func(Fig8Point) float64) float64 {
	best := pts[0]
	for _, p := range pts {
		if val(p) < val(best) {
			best = p
		}
	}
	return best.FGHz
}

// RenderFig8 prints the gemm-on-BDW and 2mm-on-RPL studies of the paper.
// The two case studies run concurrently; rendering follows in case order.
func (s *Suite) RenderFig8() error {
	s.printf("== Fig. 8: EDP estimates, set- vs fully-associative PolyUFC-CM vs HW ==\n")
	cases := []struct {
		kernel string
		plat   *hw.Platform
	}{{"gemm-pow2", s.plats[0]}, {"2mm-pow2", s.plats[1]}}
	results, err := parallel.Map(s.ctx(), len(cases), s.Concurrency,
		func(_ context.Context, i int) (*Fig8Result, error) {
			return s.Fig8(cases[i].kernel, cases[i].plat)
		})
	if err != nil {
		return err
	}
	for _, r := range results {
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
	return nil
}
