package roofline

import (
	"os"
	"path/filepath"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/platform"
)

// TestCalibrationStaysSocketLocal pins the fitted constants of every
// built-in backend and every shipped description file. The calibration
// micro-benchmarks are hand-built profiles with no remote share, so they
// measure socket-local even on a multi-socket machine whose measurements
// charge the link: no fit moves, and no saved calibration or journal
// entry keyed by one is orphaned.
func TestCalibrationStaysSocketLocal(t *testing.T) {
	want := map[string]string{
		"BDW":       "f020bf6ecfbad849",
		"RPL":       "def276b78e0d060c",
		"2S-BDW":    "93a0ee37a842e386",
		"WIDE":      "0ba0ecfa9f0615f8",
		"2S-BDW-X8": "963f3bd35092a59f",
	}
	backends := platform.All()
	for _, file := range []string{"2-socket-bdw.json", "wide-uncore.json", "cluster-2s-bdw.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "platforms", file))
		if err != nil {
			t.Fatal(err)
		}
		b, err := platform.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, b)
	}
	if len(backends) != len(want) {
		t.Fatalf("%d backends, %d pinned hashes", len(backends), len(want))
	}
	for _, b := range backends {
		tg, err := Resolve(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := tg.Constants.Hash(); got != want[b.Name] {
			t.Errorf("%s: calibration hash %s, want %s", b.Name, got, want[b.Name])
		}
	}
}

func TestCalibrateBDW(t *testing.T) {
	m := hw.NewMachine(hw.BDW())
	c, err := Calibrate(m)
	if err != nil {
		t.Fatal(err)
	}
	// Compute roof: 12 threads x 16 flops/cycle x 3.6 GHz = 691 GF/s; the
	// measured peak includes the overlap term, so allow slack.
	if c.PeakGFlops < 400 || c.PeakGFlops > 800 {
		t.Fatalf("peak = %.1f GF/s", c.PeakGFlops)
	}
	// Memory roof: capped at the DIMM ceiling (50 GB/s).
	if c.PeakGBs < 30 || c.PeakGBs > 55 {
		t.Fatalf("peak BW = %.1f GB/s", c.PeakGBs)
	}
	if c.BtDRAM < 5 || c.BtDRAM > 25 {
		t.Fatalf("time balance = %.1f FpB", c.BtDRAM)
	}
	if c.MissLatR2 < 0.95 {
		t.Fatalf("miss latency fit R2 = %f", c.MissLatR2)
	}
	// M^t must decrease with frequency.
	if c.MissLat(1.2) <= c.MissLat(2.8) {
		t.Fatal("per-byte DRAM time must fall with uncore frequency")
	}
	if c.PCon <= 0 || c.PCon > 100 {
		t.Fatalf("PCon = %.1f W", c.PCon)
	}
	if c.EFpu <= 0 || c.EFpu > 1e-8 {
		t.Fatalf("EFpu = %g J/flop", c.EFpu)
	}
	if len(c.HitLatency) != 3 {
		t.Fatalf("hit latencies = %v", c.HitLatency)
	}
	for i := 1; i < len(c.HitLatency); i++ {
		if c.HitLatency[i] <= c.HitLatency[i-1] {
			t.Fatalf("hit latencies not increasing: %v", c.HitLatency)
		}
	}
}

func TestCalibrateRPLBalanceHigher(t *testing.T) {
	// RPL has more cores and a similar memory roof: a higher (or at least
	// comparable) time balance than BDW, shifting kernels toward BB (the
	// Fig. 6 vertical shift narrative works through cache sizes instead).
	cb, err := Calibrate(hw.NewMachine(hw.BDW()))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := Calibrate(hw.NewMachine(hw.RPL()))
	if err != nil {
		t.Fatal(err)
	}
	if cr.PeakGFlops <= cb.PeakGFlops {
		t.Fatal("RPL must out-compute BDW")
	}
	if cr.PeakGBs <= cb.PeakGBs {
		t.Fatal("RPL must out-stream BDW")
	}
}

func TestClassify(t *testing.T) {
	c := &Constants{BtDRAM: 10}
	if c.Classify(50) != ComputeBound || c.Classify(2) != BandwidthBound {
		t.Fatal("classification wrong")
	}
	if c.Classify(10) != ComputeBound {
		t.Fatal("boundary OI must be CB (I >= B)")
	}
	if ComputeBound.String() != "CB" || BandwidthBound.String() != "BB" {
		t.Fatal("class names")
	}
}

func TestUncorePowerMonotone(t *testing.T) {
	m := hw.NewMachine(hw.RPL())
	c, err := Calibrate(m)
	if err != nil {
		t.Fatal(err)
	}
	bw := 30e9
	if c.UncorePower(4.0, bw) <= c.UncorePower(1.0, bw) {
		t.Fatal("uncore power must grow with frequency")
	}
	if c.UncorePower(2.0, 40e9) <= c.UncorePower(2.0, 5e9) {
		t.Fatal("uncore power must grow with bandwidth")
	}
	if c.PeakDRAMPower(4.0) <= c.PeakDRAMPower(1.0) {
		t.Fatal("peak DRAM power roof must grow with frequency")
	}
}
