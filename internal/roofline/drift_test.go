package roofline

import (
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
)

// The watchdog's full episode: small residuals stay OK, sustained large
// ones degrade exactly once, a re-fit claims the episode, and a
// successful completion resets the history so old residuals cannot
// re-trip the fresh fit.
func TestDriftTrackerStateMachine(t *testing.T) {
	d := NewDriftTracker(DriftOptions{Threshold: 0.10, MinSamples: 3, Alpha: 0.5})
	var fired []string
	d.OnDegrade(func(b string) { fired = append(fired, b) })

	// Healthy residuals (~1%) never degrade, no matter how many.
	for i := 0; i < 10; i++ {
		d.Record("RPL", 0.99, 1.0)
	}
	if s := d.State("RPL"); s != DriftOK {
		t.Fatalf("state after healthy samples = %v", s)
	}
	if len(fired) != 0 {
		t.Fatalf("OnDegrade fired on healthy residuals: %v", fired)
	}

	// One outlier under min-samples must not trip a fresh backend.
	d.Record("BDW", 1.0, 2.0)
	if s := d.State("BDW"); s != DriftOK {
		t.Fatalf("single outlier degraded BDW: %v", s)
	}

	// Sustained 30% drift flips RPL, firing the hook exactly once even as
	// bad samples keep arriving.
	for i := 0; i < 6; i++ {
		d.Record("RPL", 1.0, 1.3)
	}
	if s := d.State("RPL"); s != DriftDegraded {
		t.Fatalf("state after sustained drift = %v", s)
	}
	if len(fired) != 1 || fired[0] != "RPL" {
		t.Fatalf("OnDegrade calls = %v, want one for RPL", fired)
	}
	if !d.Degraded("RPL") || d.Degraded("BDW") {
		t.Fatal("Degraded() disagrees with states")
	}

	// Only one re-fit may claim the episode.
	if !d.BeginRefit("RPL") {
		t.Fatal("BeginRefit refused the first claim")
	}
	if d.BeginRefit("RPL") {
		t.Fatal("BeginRefit allowed a concurrent second re-fit")
	}
	if s := d.State("RPL"); s != DriftRefitting || !d.Degraded("RPL") {
		t.Fatalf("state during refit = %v", s)
	}

	// Failure falls back to degraded and re-arms the hook.
	d.CompleteRefit("RPL", false)
	if s := d.State("RPL"); s != DriftDegraded {
		t.Fatalf("state after failed refit = %v", s)
	}
	d.Record("RPL", 1.0, 1.3)
	if len(fired) != 2 {
		t.Fatalf("failed refit did not re-arm OnDegrade: %v", fired)
	}

	// Success resets the residual history: the stale EWMA must not trip
	// the brand-new fit.
	d.BeginRefit("RPL")
	d.CompleteRefit("RPL", true)
	if s := d.State("RPL"); s != DriftOK {
		t.Fatalf("state after successful refit = %v", s)
	}
	st := d.Snapshot()["RPL"]
	if st.Samples != 0 || st.MeanAbsRelErr != 0 {
		t.Fatalf("residual history survived the refit: %+v", st)
	}
	// The failed re-fit fell back into the SAME episode, so only one
	// degradation is counted.
	if st.Refits != 1 || st.Degradations != 1 {
		t.Fatalf("episode counters: %+v", st)
	}
	d.Record("RPL", 1.0, 1.02)
	if s := d.State("RPL"); s != DriftOK {
		t.Fatalf("healthy sample after refit degraded: %v", s)
	}
}

// Garbage measurements (zero, negative, NaN predictions) are discarded,
// and a nil tracker is a no-op — serving code paths need no guards.
func TestDriftTrackerRejectsGarbage(t *testing.T) {
	d := NewDriftTracker(DriftOptions{})
	d.Record("RPL", 1.0, 0)
	d.Record("RPL", 1.0, -2)
	if st, ok := d.Snapshot()["RPL"]; ok && st.Samples != 0 {
		t.Fatalf("garbage measurements recorded: %+v", st)
	}
	var nilT *DriftTracker
	nilT.Record("RPL", 1, 1)
	if nilT.State("RPL") != DriftOK || nilT.Degraded("RPL") {
		t.Fatal("nil tracker not inert")
	}
}

// Refit against drifted hardware produces a genuinely different fit: the
// memory-path constants slow down by the injected drift factor, the
// constants hash changes (so responses keyed by the old fit miss), and
// the provenance names the re-fit tool.
func TestRefitSeesDriftedHardware(t *testing.T) {
	tgt, err := ResolveName("RPL")
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.New(7)
	reg.Enable(hw.FaultMeasureDrift, faults.Spec{P: 1})

	refit, err := Refit(tgt, reg)
	if err != nil {
		t.Fatal(err)
	}
	if refit.Platform != tgt.Platform {
		t.Fatal("refit rebuilt the platform instead of sharing it")
	}
	if refit.Constants.Hash() == tgt.Constants.Hash() {
		t.Fatal("refit on drifted hardware reproduced the stale constants hash")
	}
	// Drift dilates measured time by DriftTimeFactor, so the re-fitted
	// per-byte cost grows by the same factor (memory benches are long
	// enough that overhead is in the noise).
	ratio := refit.Constants.TByteMax / tgt.Constants.TByteMax
	if ratio < hw.DriftTimeFactor*0.95 || ratio > hw.DriftTimeFactor*1.05 {
		t.Fatalf("TByteMax ratio = %.3f, want ~%.2f", ratio, hw.DriftTimeFactor)
	}
	if refit.Calibration.Provenance.Tool != "polyufc/roofline-refit" {
		t.Fatalf("provenance tool = %q", refit.Calibration.Provenance.Tool)
	}
	if refit.Calibration.BackendHash != tgt.Backend.Hash() {
		t.Fatal("refit lost the backend pin")
	}

	// A clean-hardware refit of a clean target reproduces the same
	// physics (hash may differ only through the provenance-free
	// constants; it must in fact be identical since the simulator is
	// noiseless).
	again, err := Refit(tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Constants.Hash() != tgt.Constants.Hash() {
		t.Fatal("noiseless refit did not reproduce the original fit")
	}
}
