package hw

import (
	"errors"
	"sync"
	"testing"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/faults"
	"polyufc/internal/ir"
)

// fakeClock is a manually-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testBreaker(m *Machine, threshold int, clk *fakeClock) *CapBreaker {
	return NewCapBreaker(testController(m), breaker.Options{
		Threshold: threshold,
		Cooldown:  time.Second,
		Clock:     clk.Now,
	})
}

// The tentpole scenario: a permanently sick driver trips the breaker
// within the configured failure budget, subsequent operations fast-fail
// without touching the driver, and a recovered driver closes the breaker
// through a single half-open probe.
func TestCapBreakerTripsDegradesAndRecovers(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(4)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	m.SetFaults(reg)
	clk := &fakeClock{}
	b := testBreaker(m, 2, clk)

	for i := 0; i < 2; i++ {
		if _, err := b.SetCap(1.5); !errors.Is(err, ErrCapBusy) {
			t.Fatalf("SetCap %d: err = %v, want ErrCapBusy", i, err)
		}
	}
	if st := b.Stats(); st.State != breaker.Open || st.Trips != 1 {
		t.Fatalf("after threshold failures: %+v, want open with 1 trip", st)
	}

	// Open: fast-fail, the driver must not be touched.
	applies := b.ControllerStats().Applies
	if _, err := b.SetCap(1.5); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker err = %v, want ErrBreakerOpen", err)
	}
	if got := b.ControllerStats().Applies; got != applies {
		t.Fatalf("open breaker reached the driver: applies %d -> %d", applies, got)
	}
	if b.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", b.Stats().Rejected)
	}

	// Cooldown elapses with the driver still sick: the probe fails and
	// re-opens the breaker.
	clk.Advance(time.Second)
	if b.State() != breaker.HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", b.State())
	}
	if _, err := b.SetCap(1.5); !errors.Is(err, ErrCapBusy) {
		t.Fatalf("probe err = %v, want ErrCapBusy", err)
	}
	if st := b.Stats(); st.State != breaker.Open || st.Trips != 2 || st.Probes != 1 {
		t.Fatalf("after failed probe: %+v", st)
	}
	if st := b.Stats(); st.HalfOpens != 1 || st.ProbeFailures != 1 || st.ProbeSuccesses != 0 {
		t.Fatalf("probe counters after failed probe: %+v", st)
	}

	// Driver recovers; the next probe closes the breaker.
	m.SetFaults(nil)
	clk.Advance(time.Second)
	got, err := b.SetCap(1.5)
	if err != nil || got != 1.5 {
		t.Fatalf("recovery probe: %.1f, %v", got, err)
	}
	if st := b.Stats(); st.State != breaker.Closed || st.Recovered != 1 || st.Probes != 2 {
		t.Fatalf("after recovery: %+v", st)
	}
	if st := b.Stats(); st.HalfOpens != 2 || st.ProbeSuccesses != 1 || st.ProbeFailures != 1 {
		t.Fatalf("probe counters after recovery: %+v", st)
	}
}

// Restore bypasses an open breaker: shutdown must never leave the machine
// capped just because the driver was quarantined.
func TestCapBreakerRestoreBypassesOpenBreaker(t *testing.T) {
	p := BDW()
	m := NewMachine(p)
	b := testBreaker(m, 1, &fakeClock{})
	if _, err := b.SetCap(1.5); err != nil {
		t.Fatal(err)
	}
	reg := faults.New(6)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	m.SetFaults(reg)
	if _, err := b.SetCap(2.0); !errors.Is(err, ErrCapBusy) {
		t.Fatalf("err = %v", err)
	}
	if b.State() != breaker.Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Every driver write still fails, but Restore's fallback reset path
	// guarantees the default cap — through the open breaker.
	if err := b.Restore(); err != nil {
		t.Fatalf("Restore through open breaker: %v", err)
	}
	if m.UncoreCap() != p.UncoreMax {
		t.Fatalf("cap left at %.1f", m.UncoreCap())
	}
	// A fallback reset is not recovery evidence: the driver is still sick,
	// so the breaker stays open.
	if b.Stats().State != breaker.Open {
		t.Fatalf("fallback restore closed the breaker: %v", b.Stats().State)
	}
}

// Intermittent failures below the threshold never trip the breaker: a
// success resets the consecutive-failure streak.
func TestCapBreakerSuccessResetsStreak(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(8)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	clk := &fakeClock{}
	b := testBreaker(m, 3, clk)
	for i := 0; i < 10; i++ {
		// Alternate: two failures, then a success, forever.
		if i%3 == 2 {
			m.SetFaults(nil)
		} else {
			m.SetFaults(reg)
		}
		b.SetCap(1.5)
	}
	if st := b.Stats(); st.State != breaker.Closed || st.Trips != 0 {
		t.Fatalf("breaker tripped on a sub-threshold streak: %+v", st)
	}
}

// Concurrent SetCap calls racing capped runs under injected
// ufs.write.ebusy, with the run finishing in a Restore. A run reasserts the
// cap after every nest (the watchdog, CapController.RunFunc) under the
// breaker's lock, which is where the watchdog runs in the serving daemon.
// Run under -race this pins the breaker as the concurrency-safe front door
// to the (deliberately unsynchronized) CapController.
func TestCapBreakerReassertRacesSetCapUnderFaults(t *testing.T) {
	p := RPL()
	m := NewMachine(p)
	reg := faults.New(13)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 0.5})
	reg.Enable(FaultThermalOverride, faults.Spec{P: 0.5})
	m.SetFaults(reg)
	// A generous threshold keeps the breaker mostly closed so the race
	// exercises the driver path, not the fast-fail path.
	b := testBreaker(m, 1<<30, &fakeClock{})

	steps := p.UncoreSteps()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.SetCap(steps[(w+i)%len(steps)]) // transient ErrCapBusy is expected
			}
		}(w)
	}
	f := cappedCopy(steps[0])
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			b.RunFunc(f) // an exhausted cap write fails the run, as expected
		}
	}()
	wg.Wait()

	if err := b.Restore(); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if m.UncoreCap() != p.UncoreMax {
		t.Fatalf("race left cap at %.1f", m.UncoreCap())
	}
	if b.ControllerStats().Retries == 0 {
		t.Fatal("no retries at 50% fault rate (faults not exercised)")
	}
	if b.ControllerStats().Overrides == 0 {
		t.Fatal("the watchdog corrected no thermal override (reassert not exercised)")
	}
}

// cappedCopy is a one-nest function that caps the uncore at ghz and then
// streams a 64-element array copy.
func cappedCopy(ghz float64) *ir.Func {
	A := ir.NewArray("A", 8, 64)
	B := ir.NewArray("B", 8, 64)
	i := ir.AffVar("i")
	stmt := &ir.Statement{Name: "S", Flops: 1, Accesses: []ir.Access{
		{Array: A, Index: []ir.AffExpr{i}},
		{Array: B, Write: true, Index: []ir.AffExpr{i}},
	}}
	nest := &ir.Nest{Label: "copy", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
	return &ir.Func{Name: "k", Ops: []ir.Op{&ir.SetUncoreCap{GHz: ghz}, nest}}
}
