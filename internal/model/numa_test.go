package model

import (
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
)

// withLink is New on a machine whose inter-socket link costs rc.
func withLink(c *roofline.Constants, ks KernelStats, rc platform.LinkCost) *Model {
	m := New(c, ks)
	m.Remote = rc
	return m
}

func TestRemoteTermZeroRatioBitIdentical(t *testing.T) {
	c := calibrated(t, hw.BDW())
	rc := platform.LinkCost{SecPerByte: 1e-9, JoulesPerByte: 1e-11}
	for _, ks := range []KernelStats{cbStats(), bbStats()} {
		plain := New(c, ks).At(2.0)
		numa := withLink(c, ks, rc).At(2.0)
		if plain != numa {
			t.Fatalf("rho=0 NUMA estimate differs from the plain model:\n%+v\nvs\n%+v", plain, numa)
		}
		// A rho over a free link is likewise inert.
		ks.RemoteRatio = 0.5
		if got := New(c, ks).At(2.0); got != plain {
			t.Fatal("RemoteRatio over a zero-cost link changed the estimate")
		}
	}
}

func TestRemoteTermCostsTimeAndEnergy(t *testing.T) {
	c := calibrated(t, hw.BDW())
	ic := hw.BDW().Backend.Interconnect // nil: BDW is single-socket
	if ic != nil {
		t.Fatal("BDW grew an interconnect?")
	}
	rc := platform.LinkCost{SecPerByte: 2e-9, JoulesPerByte: 2e-11}
	ks := bbStats()
	base := withLink(c, ks, rc).At(2.0)
	prev := base
	for _, rho := range []float64{0.25, 0.5, 1.0} {
		ks.RemoteRatio = rho
		got := withLink(c, ks, rc).At(2.0)
		if !(got.Seconds > prev.Seconds) || !(got.Joules > prev.Joules) {
			t.Fatalf("rho=%g: remote traffic free (%.4g s vs %.4g s)", rho, got.Seconds, prev.Seconds)
		}
		prev = got
	}
	ks.RemoteRatio = 3.0 // clamps to 1
	if got := withLink(c, ks, rc).At(2.0); got != prev {
		t.Fatal("remote ratio did not clamp at 1")
	}
}

// TestRemoteTermLowersBBCap is the modeling claim behind per-socket cap
// vectors: the link term deepens the memory plateau, so a bandwidth-bound
// kernel's EDP-optimal uncore cap can only move down (or stay) as its
// remote share grows — extra frequency cannot speed up link-bound bytes.
func TestRemoteTermLowersBBCap(t *testing.T) {
	c := calibrated(t, hw.BDW())
	rc := platform.LinkCost{SecPerByte: 4e-9, JoulesPerByte: 1.5e-11}
	freqs := hw.BDW().UncoreSteps()
	ks := bbStats()
	argminEDP := func(m *Model) float64 {
		best, bestEDP := freqs[0], m.At(freqs[0]).EDP
		for _, f := range freqs[1:] {
			if e := m.At(f).EDP; e < bestEDP {
				best, bestEDP = f, e
			}
		}
		return best
	}
	prevCap := 99.0
	for _, rho := range []float64{0, 0.5, 1.0} {
		ks.RemoteRatio = rho
		cap := argminEDP(withLink(c, ks, rc))
		if cap > prevCap {
			t.Fatalf("rho=%g raised the selected cap: %.2f > %.2f", rho, cap, prevCap)
		}
		prevCap = cap
	}
}
