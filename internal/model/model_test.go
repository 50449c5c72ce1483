package model

import (
	"testing"

	"polyufc/internal/cachemodel"
	"polyufc/internal/hw"
	"polyufc/internal/roofline"
)

func calibrated(t *testing.T, p *hw.Platform) *roofline.Constants {
	t.Helper()
	c, err := roofline.Calibrate(hw.NewMachine(p))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// cbStats is a compute-heavy kernel (high OI).
func cbStats() KernelStats {
	return KernelStats{
		Flops: 2e9, QBytes: 8e9, QDRAM: 64e6, OI: 2e9 / 64e6,
		HitRatio:  []float64{0.95, 0.6, 0.5},
		MissRatio: []float64{0.05, 0.4, 0.5},
		Threads:   12,
	}
}

// bbStats is a streaming kernel (low OI).
func bbStats() KernelStats {
	return KernelStats{
		Flops: 4e7, QBytes: 4e8, QDRAM: 64e7, OI: 4e7 / 64e7,
		HitRatio:  []float64{0.6, 0.2, 0.1},
		MissRatio: []float64{0.4, 0.8, 0.9},
		Threads:   12,
	}
}

func TestClassification(t *testing.T) {
	c := calibrated(t, hw.BDW())
	if New(c, cbStats()).Class() != roofline.ComputeBound {
		t.Fatal("high-OI kernel must be CB")
	}
	if New(c, bbStats()).Class() != roofline.BandwidthBound {
		t.Fatal("low-OI kernel must be BB")
	}
}

func TestCBTimeFlatBBTimeFalls(t *testing.T) {
	c := calibrated(t, hw.BDW())
	cb := New(c, cbStats())
	lo, hi := cb.At(1.2), cb.At(2.8)
	if lo.Seconds > hi.Seconds*1.10 {
		t.Fatalf("CB time varies too much: %.4f vs %.4f", lo.Seconds, hi.Seconds)
	}
	bb := New(c, bbStats())
	blo, bhi := bb.At(1.2), bb.At(2.8)
	if blo.Seconds < bhi.Seconds*1.2 {
		t.Fatalf("BB time does not improve with f: %.4f vs %.4f", blo.Seconds, bhi.Seconds)
	}
}

func TestEnergyGrowsWithFrequencyForCB(t *testing.T) {
	c := calibrated(t, hw.RPL())
	cb := New(c, cbStats())
	if cb.At(1.0).Joules >= cb.At(4.5).Joules {
		t.Fatal("CB energy must grow with uncore frequency")
	}
}

func TestEstimateInternalConsistency(t *testing.T) {
	c := calibrated(t, hw.BDW())
	m := New(c, bbStats())
	for _, f := range []float64{1.2, 2.0, 2.8} {
		e := m.At(f)
		if e.Seconds <= 0 || e.Joules <= 0 || e.EDP <= 0 {
			t.Fatalf("non-positive estimate at %.1f: %+v", f, e)
		}
		if e.TCompute+e.TMemory != e.Seconds {
			t.Fatalf("time decomposition broken at %.1f", f)
		}
		wantPerf := float64(m.KS.Flops) / e.Seconds / 1e9
		if diff := (e.GFlops - wantPerf) / wantPerf; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Eqn. 5 broken")
		}
		wantBW := float64(m.KS.QDRAM) / e.Seconds / 1e9
		if diff := (e.GBs - wantBW) / wantBW; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Eqn. 6 broken")
		}
	}
}

func TestPeakPowerCeilingShape(t *testing.T) {
	// Eqn. 8: as OI grows beyond the balance, the CB ceiling approaches
	// PCon + PFpuHat.
	c := calibrated(t, hw.RPL())
	ksHigh := cbStats()
	ksHigh.OI = 1e6
	eHigh := New(c, ksHigh).At(platMax(c))
	limit := c.PCon + c.PFpuHat
	if eHigh.PeakWatts < limit*0.99 || eHigh.PeakWatts > limit*1.5 {
		t.Fatalf("CB ceiling at huge OI = %.1f, want near %.1f", eHigh.PeakWatts, limit)
	}
	// BB ceiling grows with OI.
	b1, b2 := bbStats(), bbStats()
	b2.OI = b1.OI * 4
	p1 := New(c, b1).At(2.0).PeakWatts
	p2 := New(c, b2).At(2.0).PeakWatts
	if p2 <= p1 {
		t.Fatal("BB ceiling must grow with OI")
	}
}

func TestModelTracksMachineForStreaming(t *testing.T) {
	// The calibrated model must reproduce the machine's timing for a
	// stream-like profile within a modest factor across the f range.
	plat := hw.BDW()
	mach := hw.NewMachine(plat)
	c := calibrated(t, plat)
	prof := &hw.CacheProfile{Result: cachemodel.Result{
		Flops: 4e7, Instances: 4e7, Loads: 4e7, Stores: 0, QBytes: 4e7 * 8,
		Levels: []cachemodel.LevelResult{
			{Accesses: 4e7, Misses: 1e7, MissRatio: 0.25, HitRatio: 0.75},
			{Accesses: 1e7, Misses: 1e7, MissRatio: 1},
			{Accesses: 1e7, Misses: 1e7, MissRatio: 1},
		},
		QDRAM: 64e7, OI: 4e7 / 64e7,
	}, HasParallel: true}
	m := New(c, FromCacheModel(&prof.Result, plat.Threads))
	for i, r := range mach.SweepUncore(prof) {
		_ = i
		e := m.At(r.UncoreGHz)
		ratio := e.Seconds / r.Seconds
		if ratio > 2.0 || ratio < 0.5 {
			t.Fatalf("at %.1f GHz model %.5fs vs machine %.5fs (x%.2f)",
				r.UncoreGHz, e.Seconds, r.Seconds, ratio)
		}
	}
}

func TestDeltas(t *testing.T) {
	a := Estimate{GFlops: 100, GBs: 10, EDP: 4}
	b := Estimate{GFlops: 110, GBs: 12, EDP: 3}
	d := DeltasBetween(a, b)
	if d.Perf != 1.1 || d.BW != 1.2 || d.EDP != 0.75 {
		t.Fatalf("deltas = %+v", d)
	}
}

// platMax returns the platform's maximum uncore frequency (public Table
// III data).
func platMax(c *roofline.Constants) float64 {
	if c.Platform == "BDW" {
		return 2.8
	}
	return 4.6
}
