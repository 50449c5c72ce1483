package experiments

import (
	"polyufc/internal/core"
	"polyufc/internal/hw"
)

// DUFSRow compares PolyUFC's static inter-kernel capping against a
// reactive DUFS runtime and the pinned-max baseline for one kernel
// (Sec. VII-F: "inter-kernel uncore capping achieves equivalent or better
// performance than intra-kernel core/uncore DVFS/DUS").
type DUFSRow struct {
	Kernel   string
	Platform string
	// Seconds / Joules / EDP per strategy.
	Base, DUFS, PolyUFC hw.RunResult
	// Improvement of PolyUFC over DUFS in EDP (positive = PolyUFC wins).
	PolyUFCvsDUFS float64
}

// DUFSComparison runs the three strategies over the given kernels.
func (s *Suite) DUFSComparison(p *hw.Platform, kernels []string) ([]DUFSRow, error) {
	var out []DUFSRow
	for _, name := range kernels {
		k, err := s.measure(name, core.DefaultConfig(s.targets[p.Name]))
		if err != nil {
			return nil, err
		}
		// Repeat to ~50 ms of steady-state work so the DUFS control loop
		// (10 ms interval) actually engages and cap overheads amortize.
		oneShot := k.at(p.UncoreMax).Seconds
		reps := 1
		if oneShot > 0 {
			reps = int(0.050/oneShot) + 1
		}
		if reps > 2000 {
			reps = 2000
		}
		repeated := &measuredKernel{res: k.res, m: k.m}
		for r := 0; r < reps; r++ {
			repeated.profs = append(repeated.profs, k.profs...)
		}

		// Baseline: pinned at max.
		base := repeated.at(p.UncoreMax)

		// DUFS: reactive governor over the same stream.
		dufs := hw.DefaultDUFS().RunNests(k.m, repeated.profs)

		// PolyUFC: the compiled program repeated.
		mPU := s.machine(p)
		var capped hw.RunResult
		for r := 0; r < reps; r++ {
			run, err := mPU.RunFunc(k.res.Module.Funcs[0])
			if err != nil {
				return nil, err
			}
			capped.Add(run)
		}

		row := DUFSRow{
			Kernel: name, Platform: p.Name,
			Base: base, DUFS: dufs, PolyUFC: capped,
		}
		if dufs.EDP > 0 {
			row.PolyUFCvsDUFS = 1 - capped.EDP/dufs.EDP
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderDUFS prints the comparison for both platforms.
func (s *Suite) RenderDUFS() error {
	s.printf("== Sec. VII-F: static capping vs reactive DUFS governor ==\n")
	kernels := []string{"gemm", "mvt", "jacobi-1d"}
	for _, p := range s.plats {
		rows, err := s.DUFSComparison(p, kernels)
		if err != nil {
			return err
		}
		s.printf("-- %s (EDP in mJ*s; lower is better)\n", p.Name)
		s.printf("   %-12s %12s %12s %12s | polyufc vs dufs\n", "kernel", "pinned-max", "dufs", "polyufc")
		for _, r := range rows {
			s.printf("   %-12s %12.4f %12.4f %12.4f | %+5.1f%%\n",
				r.Kernel, r.Base.EDP*1e3, r.DUFS.EDP*1e3, r.PolyUFC.EDP*1e3,
				100*r.PolyUFCvsDUFS)
		}
	}
	return nil
}
