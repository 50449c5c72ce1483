package experiments

import (
	"fmt"
	"strings"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/tiling"
)

// tilingStudySpecs are the strategies the per-strategy reruns compare,
// pluto first (the baseline every other row diverges from).
func tilingStudySpecs() []tiling.Spec {
	var out []tiling.Spec
	for _, name := range tiling.Names() {
		out = append(out, tiling.Spec{Name: name})
	}
	return out
}

// phasePattern renders one dialect's class sequence ("CB BB BB ... CB").
func phasePattern(phases []core.Phase) string {
	parts := make([]string, len(phases))
	for i, ph := range phases {
		parts[i] = ph.Class.String()
	}
	return strings.Join(parts, " ")
}

// TilingPhaseStudy reruns the Fig. 5 phase-change study of sdpa (BERT)
// once per tiling strategy and returns the affine-level phase sequences
// keyed by strategy name. The affine view is the one the tile transform
// reshapes, so it is where strategies can flip a nest between CB and BB.
func (s *Suite) TilingPhaseStudy(p *hw.Platform) (map[string][]core.Phase, error) {
	out := map[string][]core.Phase{}
	for _, spec := range tilingStudySpecs() {
		phases, err := s.phaseStudy(p, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		out[spec.Name] = phases[ir.DialectAffine]
	}
	return out, nil
}

// TilingCapRow is one (kernel, nest, strategy) outcome of the strategy
// comparison sweep: that nest's classification, applied tile size and
// selected cap.
type TilingCapRow struct {
	Kernel   string
	Nest     int
	Strategy string // what the report names, e.g. "auto:latency"
	Class    string
	Tiled    bool
	TileSize int64
	CapGHz   float64
	// Diverges marks a row whose class or cap differs from the pluto
	// baseline row of the same kernel and nest.
	Diverges bool
}

// TilingWitnessKernels are the kernels of the strategy comparison sweep:
// gemm as the agreement baseline (every strategy lands on the Pluto
// cap), and the triangular solvers cholesky and ludcmp, whose skewed
// working sets make both cacheoblivious (tile 8) and latency (tile
// 8/16) select a bandwidth-bound cap a grid step above Pluto-32 — on
// both platforms, at test and bench sizes alike.
var TilingWitnessKernels = []string{"gemm", "cholesky", "ludcmp"}

// TilingCapSweep compiles each kernel under every strategy over the
// suite's stage cache and flags the rows that diverge from pluto,
// comparing nest by nest. The first nest always appears in the output;
// deeper nests appear only where some strategy diverges.
func (s *Suite) TilingCapSweep(p *hw.Platform, kernels []string) ([]TilingCapRow, error) {
	specs := tilingStudySpecs()
	var out []TilingCapRow
	for _, kernel := range kernels {
		perStrategy := make([][]core.KernelReport, len(specs))
		for i, spec := range specs {
			cfg := core.DefaultConfig(s.targets[p.Name])
			cfg.Tiling = spec
			res, err := s.compile(kernel, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", kernel, spec.Name, err)
			}
			perStrategy[i] = res.Reports
		}
		for nest := range perStrategy[0] {
			rows := make([]TilingCapRow, 0, len(specs))
			base := TilingCapRow{}
			diverged := false
			for i := range specs {
				if nest >= len(perStrategy[i]) {
					continue
				}
				r := perStrategy[i][nest]
				row := TilingCapRow{
					Kernel: kernel, Nest: nest, Strategy: r.Tiling, Class: r.Class.String(),
					Tiled: r.Tiled, TileSize: r.TileSize, CapGHz: r.CapGHz,
				}
				if i == 0 {
					base = row
				} else {
					row.Diverges = row.Class != base.Class || row.CapGHz != base.CapGHz
					diverged = diverged || row.Diverges
				}
				rows = append(rows, row)
			}
			if nest == 0 || diverged {
				out = append(out, rows...)
			}
		}
	}
	return out, nil
}

// RenderTiling prints the per-strategy phase-change rerun and the
// strategy comparison sweep: which tiling strategy changes which
// kernel's CB/BB classification or selected cap relative to the
// paper's Pluto-32 baseline.
func (s *Suite) RenderTiling() error {
	p := s.plats[0]
	if len(s.plats) > 1 {
		p = s.plats[1] // RPL on the paper platform pair, like Fig. 5
	}
	study, err := s.TilingPhaseStudy(p)
	if err != nil {
		return err
	}
	s.printf("== Tiling strategies: per-strategy phase-change rerun (sdpa BERT, affine level, %s) ==\n", p.Name)
	basePat := phasePattern(study[tiling.NamePluto])
	for _, spec := range tilingStudySpecs() {
		pat := phasePattern(study[spec.Name])
		mark := ""
		if spec.Name != tiling.NamePluto && pat != basePat {
			mark = "   <- diverges from pluto"
		}
		s.printf("-- %-14s %s%s\n", spec.Name+":", pat, mark)
	}
	rows, err := s.TilingCapSweep(p, TilingWitnessKernels)
	if err != nil {
		return err
	}
	s.printf("-- caps per strategy on %s (nest 0 plus every diverging nest):\n", p.Name)
	s.printf("   %-15s %-20s %-3s %5s %8s\n", "kernel/nest", "strategy", "cls", "tile", "cap(GHz)")
	for _, r := range rows {
		mark := ""
		if r.Diverges {
			mark = "   <- differs from pluto"
		}
		tile := "-"
		if r.Tiled {
			tile = fmt.Sprintf("%d", r.TileSize)
		}
		s.printf("   %-15s %-20s %-3s %5s %8.1f%s\n",
			fmt.Sprintf("%s#%d", r.Kernel, r.Nest), r.Strategy, r.Class, tile, r.CapGHz, mark)
	}
	return nil
}
