package model

import (
	"math"
	"testing"

	"polyufc/internal/hw"
)

func coreGrid(p *hw.Platform) []float64 {
	var out []float64
	for f := p.CoreMin; f <= p.CoreMax+1e-9; f += 0.1 {
		out = append(out, math.Round(f*10)/10)
	}
	return out
}

func TestAtJointReducesToAtAtBase(t *testing.T) {
	for _, p := range []*hw.Platform{hw.BDW(), hw.RPL()} {
		c := calibrated(t, p)
		cs := DefaultCoreScaling(p.CoreBase)
		for _, ks := range []KernelStats{cbStats(), bbStats()} {
			m := New(c, ks)
			for _, fu := range p.UncoreSteps() {
				if a, b := m.At(fu), m.AtJoint(cs, p.CoreBase, fu); a != b {
					t.Fatalf("%s at %.1f GHz, base core:\n At      %+v\n AtJoint %+v", p.Name, fu, a, b)
				}
			}
		}
	}
}

func TestJointCoreScalingLaws(t *testing.T) {
	p := hw.RPL()
	c := calibrated(t, p)
	m := New(c, cbStats())
	cs := DefaultCoreScaling(p.CoreBase)
	fast := m.AtJoint(cs, p.CoreBase, 2.0)
	slow := m.AtJoint(cs, p.CoreBase/2, 2.0)
	// Compute-bound: halving the core clock roughly doubles compute time.
	if slow.TCompute < 1.9*fast.TCompute {
		t.Fatalf("compute time did not scale with core clock: %g vs %g", slow.TCompute, fast.TCompute)
	}
	// Per-flop energy falls at lower frequency (voltage scaling).
	eFast := fast.Joules / fast.Seconds
	eSlow := slow.Joules / slow.Seconds
	if eSlow >= eFast {
		t.Fatalf("average power did not fall at lower core clock: %g vs %g", eSlow, eFast)
	}
}

func TestSearchJointBBKernelDropsCore(t *testing.T) {
	// A bandwidth-bound kernel wastes core frequency: the joint search
	// must pick a core clock below max while keeping the uncore high.
	p := hw.RPL()
	c := calibrated(t, p)
	m := New(c, bbStats())
	cs := DefaultCoreScaling(p.CoreBase)
	res := m.SearchJoint(cs, coreGrid(p), p.UncoreSteps(),
		func(e Estimate) float64 { return e.EDP }, 4)
	if res.CoreGHz >= p.CoreMax {
		t.Fatalf("BB kernel kept core at max (%.1f)", res.CoreGHz)
	}
	mid := (p.UncoreMin + p.UncoreMax) / 2
	if res.UncoreGHz <= mid {
		t.Fatalf("BB kernel dropped uncore to %.1f", res.UncoreGHz)
	}
	// Joint must beat uncore-only (core pinned at base).
	uncoreOnly := m.AtJoint(cs, p.CoreBase, res.UncoreGHz)
	if res.Est.EDP > uncoreOnly.EDP*1.001 {
		t.Fatalf("joint EDP %.4g worse than uncore-only %.4g", res.Est.EDP, uncoreOnly.EDP)
	}
}

func TestSearchJointCBKernelKeepsCoreHighish(t *testing.T) {
	// Compute-bound: time scales with core clock, so EDP = P*T^2 punishes
	// deep core throttling; the chosen core frequency must stay in the
	// upper half while the uncore drops low.
	p := hw.BDW()
	c := calibrated(t, p)
	m := New(c, cbStats())
	cs := DefaultCoreScaling(p.CoreBase)
	res := m.SearchJoint(cs, coreGrid(p), p.UncoreSteps(),
		func(e Estimate) float64 { return e.EDP }, 4)
	if res.CoreGHz < (p.CoreMin+p.CoreMax)/2 {
		t.Fatalf("CB kernel throttled core to %.1f GHz", res.CoreGHz)
	}
	if res.UncoreGHz > (p.UncoreMin+p.UncoreMax)/2 {
		t.Fatalf("CB kernel kept uncore at %.1f GHz", res.UncoreGHz)
	}
	if res.Evaluated == 0 || res.Rounds == 0 {
		t.Fatal("no search happened")
	}
}

func TestSearchJointEmptyGrids(t *testing.T) {
	p := hw.BDW()
	c := calibrated(t, p)
	m := New(c, cbStats())
	res := m.SearchJoint(DefaultCoreScaling(p.CoreBase), nil, nil,
		func(e Estimate) float64 { return e.EDP }, 3)
	if res.Evaluated != 0 {
		t.Fatal("empty grids must not evaluate")
	}
}
