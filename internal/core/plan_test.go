package core

import (
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/plantable"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// planSetFor sweeps a plan table for the test target and wraps it in a
// serve-ready Set.
func planSetFor(t *testing.T, cfg Config) *plantable.Set {
	t.Helper()
	tb, err := plantable.Build(nil, cfg.Target, plantable.BuildOptions{Search: cfg.Search, Tiling: cfg.Tiling})
	if err != nil {
		t.Fatal(err)
	}
	set := plantable.NewSet()
	if err := set.Add(tb); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestPlanLookupStagePresence: the plan-lookup stage exists exactly when
// a plan set is configured, so table-less pipelines keep their stage
// list (and memo key chain) bit-identical to previous releases.
func TestPlanLookupStagePresence(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	for _, name := range StageNames(cfg) {
		if name == StagePlanLookup {
			t.Fatal("plan-lookup stage present without a plan set")
		}
	}
	cfg.Plans = plantable.NewSet()
	found := false
	for _, name := range StageNames(cfg) {
		if name == StagePlanLookup {
			found = true
		}
	}
	if !found {
		t.Fatal("plan-lookup stage missing with a plan set configured")
	}
}

// TestPlanLookupCompile is the end-to-end pipeline property over the
// cross product kernels x {one socket, two} x {pluto, auto}: compiling
// with a plan table answers caps from the table (PlanHit, zero search
// evaluations) and every table-answered nest lands within one cap-grid
// step of the live-search compile of the same module. The table must
// also be of use where it matters: on one socket it answers something
// of gemm, mvt and atax, and on the shipped 2-socket description every
// parallel nest of gemm, 2mm and mvt that does arithmetic — placed
// across both sockets at remote share 1/2 — is answered from the table's
// second rho plane.
func TestPlanLookupCompile(t *testing.T) {
	b, err := platform.LoadFile("../../platforms/2-socket-bdw.json")
	if err != nil {
		t.Fatal(err)
	}
	twoSocket, err := roofline.Resolve(b)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name          string
		live, planned Config
	}
	var variants []variant
	for _, tg := range []*roofline.Target{targetFor(t, hw.BDW()), twoSocket} {
		for _, spec := range []tiling.Spec{{}, {Name: tiling.NameAuto}} {
			cfg := DefaultConfig(tg)
			cfg.AmortizeFactor = 0 // test-size kernels: keep cap insertion observable
			cfg.Tiling = spec
			planned := cfg
			planned.Plans = planSetFor(t, cfg)
			variants = append(variants, variant{tg.Platform.Name + "/" + spec.Fingerprint(), cfg, planned})
		}
	}
	mustHit := map[string]bool{"gemm": true, "2mm": true, "mvt": true, "atax": true}

	for _, k := range workloads.All() {
		kernel := k.Name
		t.Run(kernel, func(t *testing.T) {
			for _, v := range variants {
				p := v.live.Platform()
				live := compileKernelCfg(t, kernel, workloads.Test, v.live)
				got := compileKernelCfg(t, kernel, workloads.Test, v.planned)

				if len(got.Reports) != len(live.Reports) {
					t.Fatalf("%s: report count changed: %d with table, %d live", v.name, len(got.Reports), len(live.Reports))
				}
				hits := 0
				for i, r := range got.Reports {
					base := live.Reports[i]
					if r.Label != base.Label {
						t.Fatalf("%s: report %d label %q != live %q", v.name, i, r.Label, base.Label)
					}
					if !r.PlanHit {
						// (A flop-free fill nest sits below the OI axis on
						// any topology.)
						if mustHit[kernel] && r.RemoteRatio > 0 && r.CM != nil && r.CM.Flops > 0 {
							t.Errorf("%s %s: parallel nest at remote share %g fell back to live search", v.name, r.Label, r.RemoteRatio)
						}
						continue // honest fallback to live search
					}
					hits++
					if r.SearchEvals != 0 {
						t.Errorf("%s %s: plan hit ran %d live search evaluations", v.name, r.Label, r.SearchEvals)
					}
					di := hw.GridIndex(p.UncoreMin, p.UncoreMax, p.CapStep, r.CapGHz) -
						hw.GridIndex(p.UncoreMin, p.UncoreMax, p.CapStep, base.CapGHz)
					if di < -1 || di > 1 {
						t.Errorf("%s %s: table cap %.2f vs live %.2f — %d grid steps apart", v.name, r.Label, r.CapGHz, base.CapGHz, di)
					}
					if r.Class != base.Class {
						t.Errorf("%s %s: class %v with table, %v live", v.name, r.Label, r.Class, base.Class)
					}
				}
				if mustHit[kernel] && hits == 0 {
					t.Errorf("%s: no report was answered from the plan table", v.name)
				}
			}
		})
	}
}

// TestPlanLookupStaleSetFallsBack: a set whose only table is for another
// backend serves nothing — every nest falls back to live search and the
// compile result is unchanged.
func TestPlanLookupStaleSetFallsBack(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	cfg.AmortizeFactor = 0
	live := compileKernelCfg(t, "gemm", workloads.Test, cfg)

	rplCfg := DefaultConfig(targetFor(t, hw.RPL()))
	planned := cfg
	planned.Plans = planSetFor(t, rplCfg)
	got := compileKernelCfg(t, "gemm", workloads.Test, planned)

	for i, r := range got.Reports {
		if r.PlanHit {
			t.Fatalf("%s: answered from a foreign backend's table", r.Label)
		}
		if r.CapGHz != live.Reports[i].CapGHz {
			t.Fatalf("%s: fallback cap %.2f differs from live %.2f", r.Label, r.CapGHz, live.Reports[i].CapGHz)
		}
	}
}
