package experiments

import (
	"math"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
)

// TileSizeRow is one point of the tile-size ablation (the paper fixes
// Pluto's default 32; this quantifies the choice).
type TileSizeRow struct {
	Kernel   string
	Platform string
	TileSize int64
	// L1Misses from the exact simulator; EDP measured at the selected cap.
	L1Misses int64
	CapGHz   float64
	EDP      float64
}

// TileSizeSweep compiles a kernel at several tile sizes and measures the
// outcome.
func (s *Suite) TileSizeSweep(p *hw.Platform, kernelName string, sizes []int64) ([]TileSizeRow, error) {
	var out []TileSizeRow
	for _, ts := range sizes {
		cfg := core.DefaultConfig(s.targets[p.Name])
		cfg.Tiling = tiling.Spec{Name: tiling.NamePluto, Size: ts}
		k, err := s.measure(kernelName, cfg)
		if err != nil {
			return nil, err
		}
		var l1 int64
		for _, prof := range k.profs {
			l1 += prof.Levels[0].Misses
		}
		run, err := k.m.RunFunc(k.res.Module.Funcs[0])
		if err != nil {
			return nil, err
		}
		cap := p.UncoreMax
		if rep, ok := dominant(k.res.Reports); ok {
			cap = rep.CapGHz
		}
		out = append(out, TileSizeRow{
			Kernel: kernelName, Platform: p.Name, TileSize: ts,
			L1Misses: l1, CapGHz: cap, EDP: run.EDP,
		})
	}
	return out, nil
}

// RenderTileSize prints the ablation for gemm on both platforms.
func (s *Suite) RenderTileSize() error {
	s.printf("== Ablation: Pluto tile size (paper default 32) ==\n")
	sizes := []int64{8, 16, 32, 64}
	for _, p := range s.plats {
		rows, err := s.TileSizeSweep(p, "gemm", sizes)
		if err != nil {
			return err
		}
		s.printf("-- gemm on %s\n", p.Name)
		s.printf("   tile   L1 misses      cap(GHz)   EDP(mJ*s)\n")
		for _, r := range rows {
			s.printf("   %4d   %10d   %8.1f   %9.5f\n", r.TileSize, r.L1Misses, r.CapGHz, r.EDP*1e3)
		}
	}
	return nil
}

// ValidRow is one kernel of the model-validation study: the Sec. V
// estimates against machine measurement at the driver default (the
// PAPI-counter validation of Sec. VII-D).
type ValidRow struct {
	Kernel             string
	Platform           string
	EstSec, HWSec      float64
	EstJ, HWJ          float64
	TimeErr, EnergyErr float64 // |est-hw|/hw
	// Degraded marks a kernel dropped under best-effort tolerance.
	Degraded bool
}

// Validate runs the study over the given kernels on one resolved
// target. On a multi-socket target the machine measures each nest where
// the compiler placed it, so the rows check the model's inter-socket
// term as well. One worker per kernel; rows return in input order.
func (s *Suite) Validate(t *roofline.Target, kernels []string) ([]ValidRow, error) {
	return sweepKernels(s, "valid", kernels, func(i int) (ValidRow, error) {
		v, err := s.compareModel(kernels[i], t)
		if err != nil {
			return ValidRow{}, err
		}
		return ValidRow{
			Kernel: kernels[i], Platform: t.Platform.Name,
			EstSec: v.estSec, HWSec: v.hw.Seconds, EstJ: v.estJ, HWJ: v.hw.PkgJoules,
			TimeErr:   math.Abs(v.estSec-v.hw.Seconds) / v.hw.Seconds,
			EnergyErr: math.Abs(v.estJ-v.hw.PkgJoules) / v.hw.PkgJoules,
		}, nil
	}, func(i int) ValidRow {
		return ValidRow{Kernel: kernels[i], Platform: t.Platform.Name, Degraded: true}
	})
}

// RenderValidate prints the validation over a representative kernel mix
// and its mean errors: one block per evaluation platform, then one per
// multi-socket backend of the cluster experiment.
func (s *Suite) RenderValidate() error {
	s.printf("== Validation: Sec. V estimates vs machine measurement (driver default) ==\n")
	kernels := []string{"gemm", "2mm", "mvt", "gemver", "atax", "jacobi-2d", "doitgen", "syrk"}
	var targets []*roofline.Target
	for _, p := range s.plats {
		targets = append(targets, s.targets[p.Name])
	}
	backends, err := clusterBackends()
	if err != nil {
		return err
	}
	for _, b := range backends {
		if b.NumSockets() < 2 {
			continue
		}
		t, err := s.calibrate(s.ctx(), b)
		if err != nil {
			return err
		}
		targets = append(targets, t)
	}
	for _, t := range targets {
		rows, err := s.Validate(t, kernels)
		if err != nil {
			return err
		}
		s.printf("-- %s\n", t.Platform.Name)
		s.printf("   %-12s est/HW time (ms)      est/HW energy (J)   | errors\n", "kernel")
		var te, ee float64
		n := 0
		for _, r := range rows {
			if r.Degraded {
				continue
			}
			s.printf("   %-12s %8.3f /%8.3f   %8.4f /%8.4f | t %4.0f%%  e %4.0f%%\n",
				r.Kernel, r.EstSec*1e3, r.HWSec*1e3, r.EstJ, r.HWJ,
				100*r.TimeErr, 100*r.EnergyErr)
			te += r.TimeErr
			ee += r.EnergyErr
			n++
		}
		if n > 0 {
			s.printf("   mean: time %.0f%%, energy %.0f%%\n",
				100*te/float64(n), 100*ee/float64(n))
		}
		s.renderDegraded()
	}
	return nil
}
