package hw

import (
	"math"
	"reflect"
	"testing"

	"polyufc/internal/cachesim"
	"polyufc/internal/platform"
)

// TestBackendEquivalence checks the one Socket -> Platform conversion on
// the two Table-III machines: every Platform field carries the
// description field of the same meaning. (The description values
// themselves are pinned by platform.TestBackendHashesPinned; the scalar
// literals here are what catches two fields swapped in SocketPlatform.)
func TestBackendEquivalence(t *testing.T) {
	for _, want := range []*Platform{
		{Name: "BDW", CPU: "Xeon E5-1650 v4 (6C/12T)", Released: 2015, Cores: 6, Threads: 12,
			CoreMin: 1.2, CoreMax: 4.0, CoreBase: 3.6, UncoreMin: 1.2, UncoreMax: 2.8,
			CapStep: 0.1, CapLatency: 35e-6, HasUncoreRAPL: false},
		{Name: "RPL", CPU: "Intel i5-13600 (14C/20T)", Released: 2023, Cores: 14, Threads: 20,
			CoreMin: 0.8, CoreMax: 5.0, CoreBase: 3.9, UncoreMin: 0.8, UncoreMax: 4.6,
			CapStep: 0.1, CapLatency: 21e-6, HasUncoreRAPL: true},
	} {
		got, err := PlatformByName(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if got.Backend == nil {
			t.Fatalf("%s: registry platform should carry its backend description", want.Name)
		}
		s := got.Backend.Sockets[0]
		want.Backend, want.truth = got.Backend, s.Truth
		for _, lv := range s.Cache {
			want.Cache.Levels = append(want.Cache.Levels, cachesim.LevelConfig{
				Name: lv.Name, SizeBytes: lv.SizeBytes, LineSize: lv.LineSize, Assoc: lv.Assoc})
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: registry platform differs from its description:\n got %+v\nwant %+v", want.Name, got, want)
		}
	}
}

// grid builds a bare platform for frequency-grid edge cases.
func grid(min, max, step float64) *Platform {
	return &Platform{UncoreMin: min, UncoreMax: max, CapStep: step}
}

func TestUncoreStepsGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Platform
		want []float64
	}{
		{"bdw-0.1", grid(1.2, 2.8, 0.1),
			[]float64{1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8}},
		{"half-step-0.05", grid(1.25, 1.5, 0.05),
			[]float64{1.25, 1.3, 1.35, 1.4, 1.45, 1.5}},
		{"uneven-range", grid(1.0, 1.25, 0.1),
			[]float64{1.0, 1.1, 1.2}},
		{"step-wider-than-range", grid(2.0, 2.05, 0.1),
			[]float64{2.0}},
		{"degenerate-range", grid(2.0, 2.0, 0.1),
			[]float64{2.0}},
	} {
		got := tc.p.UncoreSteps()
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: UncoreSteps = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClampCapGrid(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Platform
		in   float64
		want float64
	}{
		{"round-down", grid(1.2, 2.8, 0.1), 2.04, 2.0},
		{"round-up", grid(1.2, 2.8, 0.1), 2.06, 2.1},
		{"below-min", grid(1.2, 2.8, 0.1), 0.5, 1.2},
		{"above-max", grid(1.2, 2.8, 0.1), 9.9, 2.8},
		// A 0.05 grid anchored off the 0.1 lattice: 1.25 is a valid point.
		{"half-step-min", grid(1.25, 1.5, 0.05), 0.0, 1.25},
		{"half-step-near-min", grid(1.25, 1.5, 0.05), 1.27, 1.25},
		{"half-step-round-up", grid(1.25, 1.5, 0.05), 1.28, 1.3},
		{"half-step-max", grid(1.25, 1.5, 0.05), 7.0, 1.5},
		// Step does not divide the range: the max itself is off-grid and
		// must clamp to the last grid point, not an out-of-grid value.
		{"uneven-clamp-at-max", grid(1.0, 1.25, 0.1), 1.25, 1.2},
		{"uneven-clamp-above", grid(1.0, 1.25, 0.1), 9.0, 1.2},
		{"single-point", grid(2.0, 2.05, 0.1), 9.0, 2.0},
	} {
		got := tc.p.ClampCap(tc.in)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: ClampCap(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestClampCapOnGrid is the invariant the old implementation violated:
// every clamped value must be an element of UncoreSteps, including for
// grids whose step does not divide the range.
func TestClampCapOnGrid(t *testing.T) {
	for _, p := range []*Platform{
		grid(1.2, 2.8, 0.1), grid(0.8, 4.6, 0.1),
		grid(1.25, 1.5, 0.05), grid(1.0, 1.25, 0.1), grid(0.7, 3.14, 0.15),
	} {
		steps := p.UncoreSteps()
		on := map[float64]bool{}
		for _, f := range steps {
			on[f] = true
		}
		for f := 0.0; f < p.UncoreMax+1; f += 0.01 {
			if got := p.ClampCap(f); !on[got] {
				t.Fatalf("grid [%g,%g]@%g: ClampCap(%v) = %v is not in UncoreSteps %v",
					p.UncoreMin, p.UncoreMax, p.CapStep, f, got, steps)
			}
		}
	}
}

// TestHalfStepBackendViaRegistry registers a 0.05 GHz-step backend as a
// description (no code changes) and checks the machine path honours its
// grid.
func TestHalfStepBackendViaRegistry(t *testing.T) {
	b, err := platform.Parse([]byte(`{
		"schema": 2, "name": "HALFSTEP-TEST", "cpu": "synthetic", "released": 2026,
		"sockets": [{
			"cores": 4, "threads": 8,
			"core_min_ghz": 1.0, "core_max_ghz": 3.0, "core_base_ghz": 2.5,
			"uncore_min_ghz": 1.25, "uncore_max_ghz": 2.8, "cap_step_ghz": 0.05,
			"cap_latency_sec": 20e-6, "has_uncore_rapl": true,
			"cache": [
				{"name": "L1", "size_bytes": 32768, "line_size": 64, "assoc": 8},
				{"name": "LLC", "size_bytes": 4194304, "line_size": 64, "assoc": 16}
			],
			"truth": {
				"flops_per_cycle": 8, "hit_latency_ns": [1.0, 10.0],
				"dram_lat_coef_ns_ghz": 40, "dram_lat_base_ns": 50,
				"bw_peak_gbs": 40, "bw_knee_ghz": 0.8,
				"mlp": 8, "mlp_system": 32, "ilp": 4, "overlap": 0.2,
				"p_const_w": 20, "core_idle_w_per_ghz": 2.0, "core_j_per_flop": 2e-10,
				"uncore_idle_w_per_ghz": 3.0, "uncore_act_w_per_ghz": 6.0, "uncore_act_base_w": 1.5
			}
		}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	steps := p.UncoreSteps()
	if len(steps) != 32 { // 1.25..2.80 in 0.05 steps
		t.Fatalf("steps = %d, want 32", len(steps))
	}
	if steps[0] != 1.25 || steps[len(steps)-1] != 2.8 {
		t.Fatalf("grid bounds = [%v, %v]", steps[0], steps[len(steps)-1])
	}
	m := NewMachine(p)
	if got := m.SetUncoreCap(1.26); got != 1.25 {
		t.Fatalf("SetUncoreCap(1.26) = %v, want 1.25", got)
	}
	if got := m.SetUncoreCap(0.2); got != 1.25 {
		t.Fatalf("SetUncoreCap(0.2) = %v, want 1.25", got)
	}
}

func TestFromBackendRejectsInvalid(t *testing.T) {
	// mutated returns a copy of the BDW description (its own socket list:
	// the registry's must stay intact) with socket 0 edited.
	mutated := func(edit func(*platform.Socket)) *platform.Backend {
		bad := *BDW().Backend
		bad.Sockets = append([]platform.Socket(nil), bad.Sockets...)
		edit(&bad.Sockets[0])
		return &bad
	}
	if _, err := FromBackend(mutated(func(s *platform.Socket) { s.CapStepGHz = 0 })); err == nil {
		t.Fatal("zero cap step should be rejected")
	}
	if _, err := FromBackend(mutated(func(s *platform.Socket) { s.Truth.HitLatencyNs = []float64{1.0} })); err == nil {
		t.Fatal("hit-latency/cache-level mismatch should be rejected")
	}
	if BDW().CapStep != 0.1 {
		t.Fatal("mutating a copy edited the registered description")
	}
}
