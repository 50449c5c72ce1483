package experiments

import (
	"math"
	"path/filepath"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/workloads"
)

// A backend added purely as a JSON description — no Go changes — runs the
// whole flow: registry load, roofline calibration (characterize), PolyUFC
// compilation with cap search, and execution on the simulated machine.
func TestFileBackendEndToEnd(t *testing.T) {
	b, err := platform.LoadFile(filepath.Join("..", "..", "platforms", "wide-uncore.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Paper {
		t.Fatal("synthetic backend must not join the paper set")
	}

	s, err := NewBackends(workloads.Bench, nil, []*platform.Backend{b})
	if err != nil {
		t.Fatal(err)
	}

	// Characterize: the roofline calibrated from the description alone.
	c := s.Constants(b.Name)
	if c == nil || c.PeakGFlops <= 0 || c.PeakGBs <= 0 || c.BtDRAM <= 0 {
		t.Fatalf("calibration incomplete: %+v", c)
	}
	tg := s.Target(b.Name)
	if tg.Calibration == nil || tg.Calibration.BackendHash != b.Hash() {
		t.Fatalf("target carries no pinned calibration: %+v", tg.Calibration)
	}
	if c.CalibThreads != b.Sockets[0].Threads {
		t.Fatalf("CalibThreads = %d, want the description's %d", c.CalibThreads, b.Sockets[0].Threads)
	}

	// Compile + search: caps must land on the backend's wide 0.05 GHz grid.
	p := s.Platforms()[0]
	if p.Name != b.Name {
		t.Fatalf("suite platform = %s", p.Name)
	}
	res, err := s.compile("mvt", core.DefaultConfig(s.Target(p.Name)))
	if err != nil {
		t.Fatal(err)
	}
	if res.CapsInserted == 0 || len(res.Reports) == 0 {
		t.Fatalf("no caps selected: %+v", res)
	}
	for _, r := range res.Reports {
		if r.CapGHz < p.UncoreMin-1e-9 || r.CapGHz > p.UncoreMax+1e-9 {
			t.Fatalf("%s: cap %.3f outside [%.2f, %.2f]", r.Label, r.CapGHz, p.UncoreMin, p.UncoreMax)
		}
		steps := (r.CapGHz - p.UncoreMin) / p.CapStep
		if math.Abs(steps-math.Round(steps)) > 1e-6 {
			t.Fatalf("%s: cap %.3f is off the %.2f GHz grid", r.Label, r.CapGHz, p.CapStep)
		}
	}

	// Execute on the simulated machine: the capped program beats the
	// driver-default baseline on EDP, as on the paper machines.
	m := s.machine(p)
	var baseline hw.RunResult
	m.SetUncoreCap(p.UncoreMax)
	for _, op := range res.Module.Funcs[0].Ops {
		if nest, ok := op.(*ir.Nest); ok {
			prof, err := m.Profile(nest)
			if err != nil {
				t.Fatal(err)
			}
			r := m.Measure(prof)
			baseline.Seconds += r.Seconds
			baseline.PkgJoules += r.PkgJoules
		}
	}
	baseline.EDP = baseline.PkgJoules * baseline.Seconds
	capped, err := m.RunFunc(res.Module.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if capped.EDP >= baseline.EDP {
		t.Fatalf("no EDP gain on the synthetic backend: capped %.6g vs baseline %.6g",
			capped.EDP, baseline.EDP)
	}
}
