package experiments

import (
	"errors"
	"math"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/model"
)

// JointRow compares uncore-only capping against coordinated core+uncore
// selection (the extension the paper's Sec. VII-F discussion and the
// joint-scaling related work point to) for one kernel, measured on the
// machine.
type JointRow struct {
	Kernel   string
	Platform string
	Class    string
	// Selected frequencies.
	UncoreOnlyGHz                float64
	JointCoreGHz, JointUncoreGHz float64
	// Measured EDPs (baseline = base core, max uncore).
	BaseEDP, UncoreOnlyEDP, JointEDP float64
	// JointExtraGain is the additional EDP improvement of joint over
	// uncore-only (positive = joint wins).
	JointExtraGain float64
	// Degraded marks a kernel none of whose nests was characterized (a
	// best-effort compile dropped every cache model): nothing to select by.
	Degraded bool
}

// coreGrid returns the platform's core P-state grid at 0.1 GHz steps.
func coreGrid(p *hw.Platform) []float64 {
	var out []float64
	for f := p.CoreMin; f <= p.CoreMax+1e-9; f += 0.1 {
		out = append(out, math.Round(f*10)/10)
	}
	return out
}

// Joint runs the comparison for the given kernels on one platform.
func (s *Suite) Joint(p *hw.Platform, kernels []string) ([]JointRow, error) {
	consts := s.Constants(p.Name)
	cs := model.DefaultCoreScaling(p.CoreBase)
	var out []JointRow
	for _, name := range kernels {
		k, err := s.measure(name, core.DefaultConfig(s.targets[p.Name]))
		if err != nil {
			return nil, err
		}
		// Dominant nest decides the frequencies (as the per-kernel caps
		// would); measurement covers all nests.
		rep, ok := dominant(k.res.Reports)
		if !ok {
			s.noteDegraded(name, errors.New("joint: no nest was characterized"))
			out = append(out, JointRow{Kernel: name, Platform: p.Name, Degraded: true})
			continue
		}
		m := model.New(consts, model.FromCacheModel(rep.CM, rep.Threads))
		joint := m.SearchJoint(cs, coreGrid(p), p.UncoreSteps(),
			func(e model.Estimate) float64 { return e.EDP }, 4)
		base := k.atJoint(p.CoreBase, p.UncoreMax)
		uo := k.atJoint(p.CoreBase, rep.CapGHz)
		jt := k.atJoint(joint.CoreGHz, joint.UncoreGHz)

		row := JointRow{
			Kernel: name, Platform: p.Name, Class: rep.Class.String(),
			UncoreOnlyGHz: rep.CapGHz,
			JointCoreGHz:  joint.CoreGHz, JointUncoreGHz: joint.UncoreGHz,
			BaseEDP: base.EDP, UncoreOnlyEDP: uo.EDP, JointEDP: jt.EDP,
		}
		if uo.EDP > 0 {
			row.JointExtraGain = 1 - jt.EDP/uo.EDP
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderJoint prints the comparison for both platforms.
func (s *Suite) RenderJoint() error {
	s.printf("== Extension: coordinated core+uncore selection vs uncore-only ==\n")
	kernels := []string{"gemm", "mvt", "gemver", "jacobi-1d"}
	for _, p := range s.plats {
		rows, err := s.Joint(p, kernels)
		if err != nil {
			return err
		}
		s.printf("-- %s (EDP in mJ*s)\n", p.Name)
		s.printf("   %-12s %3s | uncore-only  |   joint (core,uncore) | base EDP    u-only EDP   joint EDP | extra\n", "kernel", "cls")
		for _, r := range rows {
			if r.Degraded {
				continue
			}
			s.printf("   %-12s %3s |   %4.1f GHz   |     (%3.1f, %4.1f) GHz   | %10.4f %12.4f %11.4f | %+5.1f%%\n",
				r.Kernel, r.Class, r.UncoreOnlyGHz, r.JointCoreGHz, r.JointUncoreGHz,
				r.BaseEDP*1e3, r.UncoreOnlyEDP*1e3, r.JointEDP*1e3, 100*r.JointExtraGain)
		}
		s.renderDegraded()
	}
	return nil
}
