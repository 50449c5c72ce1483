package hw

import (
	"errors"
	"math"
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/ir"
)

func testController(m *Machine) *CapController {
	opts := DefaultCapControllerOptions(m.P)
	opts.JitterSeed = 1
	return NewCapController(m, opts)
}

// The acceptance scenario: at a seeded 30% transient write-failure rate,
// every cap of a full grid sweep is eventually applied with bounded
// retries, and the driver default is restored on exit.
func TestCapControllerConvergesUnderTransientFaults(t *testing.T) {
	for _, p := range Platforms() {
		m := NewMachine(p)
		reg := faults.New(42)
		reg.Enable(FaultCapWriteBusy, faults.Spec{P: 0.3})
		m.SetFaults(reg)
		ctl := testController(m)
		for _, f := range p.UncoreSteps() {
			got, err := ctl.Apply(f)
			if err != nil {
				t.Fatalf("%s: Apply(%.1f): %v", p.Name, f, err)
			}
			if got != f || m.UncoreCap() != f {
				t.Fatalf("%s: Apply(%.1f) -> %.1f, cap %.1f", p.Name, f, got, m.UncoreCap())
			}
		}
		st := ctl.Stats()
		if st.Retries == 0 {
			t.Fatalf("%s: no retries at 30%% fault rate (faults not exercised)", p.Name)
		}
		// Bounded: the write count can never exceed the per-Apply budget.
		if st.Writes > st.Applies*int64(DefaultCapControllerOptions(p).MaxRetries+1) {
			t.Fatalf("%s: %d writes for %d applies exceeds the retry budget", p.Name, st.Writes, st.Applies)
		}
		if err := ctl.Restore(); err != nil {
			t.Fatalf("%s: Restore: %v", p.Name, err)
		}
		if m.UncoreCap() != p.UncoreMax {
			t.Fatalf("%s: default cap not restored: %.1f", p.Name, m.UncoreCap())
		}
	}
}

func TestCapControllerVerifyCatchesClampAndStaleReads(t *testing.T) {
	p := BDW()
	m := NewMachine(p)
	reg := faults.New(7)
	// First write is firmware-clamped one step low; the read after the
	// second (correct) write is stale.
	reg.Enable(FaultCapWriteClamp, faults.Spec{On: []int64{1}})
	reg.Enable(FaultCapReadStale, faults.Spec{On: []int64{2}})
	m.SetFaults(reg)
	ctl := testController(m)
	got, err := ctl.Apply(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2.0 || m.UncoreCap() != 2.0 {
		t.Fatalf("applied %.1f, cap %.1f", got, m.UncoreCap())
	}
	st := ctl.Stats()
	if st.Retries != 1 || st.Writes != 2 {
		t.Fatalf("stats %+v: want exactly one clamp-triggered retry", st)
	}
}

func TestCapControllerBoundedFailureAndForcedRestore(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(3)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1}) // the driver never recovers
	m.SetFaults(reg)
	ctl := testController(m)
	ctl.Apply(p.UncoreMin) // leaves the machine at the default, Apply failed
	_, err := ctl.Apply(1.5)
	if !errors.Is(err, ErrCapBusy) {
		t.Fatalf("err = %v, want ErrCapBusy", err)
	}
	st := ctl.Stats()
	if st.Failures != 2 {
		t.Fatalf("failures = %d", st.Failures)
	}
	if st.Writes != 2*int64(DefaultCapControllerOptions(p).MaxRetries+1) {
		t.Fatalf("writes = %d: retry budget not honoured", st.Writes)
	}
	// Restore must succeed even though every driver write fails: the
	// fallback reset path guarantees the machine is left unclamped.
	m.SetUncoreCap(1.5) // simulate a clamp that did land earlier
	ctl.Restore()
	if m.UncoreCap() != p.UncoreMax {
		t.Fatalf("forced restore left cap at %.1f", m.UncoreCap())
	}
}

func TestCapControllerWatchdogCorrectsThermalOverride(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(5)
	reg.Enable(FaultThermalOverride, faults.Spec{On: []int64{1}})
	m.SetFaults(reg)
	ctl := testController(m)
	if _, err := ctl.Apply(1.5); err != nil {
		t.Fatal(err)
	}
	m.Measure(cbProfile()) // the firmware silently raises the cap mid-run
	if m.UncoreCap() != p.UncoreMax || m.ThermalOverrides() != 1 {
		t.Fatalf("override not modelled: cap %.1f, overrides %d", m.UncoreCap(), m.ThermalOverrides())
	}
	corrected, err := ctl.Reassert()
	if err != nil || !corrected {
		t.Fatalf("Reassert = %v, %v", corrected, err)
	}
	if m.UncoreCap() != 1.5 || ctl.Stats().Overrides != 1 {
		t.Fatalf("watchdog left cap at %.1f (overrides %d)", m.UncoreCap(), ctl.Stats().Overrides)
	}
	// A second check with no drift is a no-op.
	if corrected, _ := ctl.Reassert(); corrected {
		t.Fatal("Reassert corrected without drift")
	}
}

func TestCapControllerRunFuncMatchesMachineWithoutFaults(t *testing.T) {
	A := ir.NewArray("A", 8, 64)
	B := ir.NewArray("B", 8, 64)
	stmt := &ir.Statement{Name: "S", Flops: 1}
	i := ir.AffVar("i")
	stmt.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i}},
		{Array: B, Write: true, Index: []ir.AffExpr{i}},
	}
	nest := &ir.Nest{Label: "copy", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
	f := &ir.Func{Name: "k", Ops: []ir.Op{
		&ir.SetUncoreCap{GHz: 1.5}, nest,
		&ir.SetUncoreCap{GHz: 2.5}, nest,
	}}
	plain, err := NewMachine(BDW()).RunFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(BDW())
	hardened, err := testController(m).RunFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	// With no faults armed the hardened path measures identically; the
	// final restore switch happens after the aggregate is settled.
	if math.Abs(hardened.Seconds-plain.Seconds) > 1e-15 || math.Abs(hardened.PkgJoules-plain.PkgJoules) > 1e-12 {
		t.Fatalf("hardened %+v vs plain %+v", hardened, plain)
	}
	if m.UncoreCap() != BDW().UncoreMax {
		t.Fatalf("RunFunc left cap at %.1f", m.UncoreCap())
	}
}

func TestCapControllerRunFuncBestEffortDegrades(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(9)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	m.SetFaults(reg)
	opts := DefaultCapControllerOptions(p)
	opts.JitterSeed = 2
	opts.BestEffort = true
	ctl := NewCapController(m, opts)
	f := &ir.Func{Name: "k", Ops: []ir.Op{&ir.SetUncoreCap{GHz: 1.0}}}
	if _, err := ctl.RunFunc(f); err != nil {
		t.Fatalf("best-effort run aborted: %v", err)
	}
	if ctl.Stats().Failures == 0 {
		t.Fatal("no failure recorded")
	}
	// Strict mode aborts on the same fault pattern.
	opts.BestEffort = false
	m2 := NewMachine(p)
	m2.SetFaults(faults.New(9))
	m2.faults.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	if _, err := NewCapController(m2, opts).RunFunc(f); !errors.Is(err, ErrCapBusy) {
		t.Fatalf("strict run err = %v", err)
	}
}
