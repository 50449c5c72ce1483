package breaker

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTest(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	return New(Options{Threshold: threshold, Cooldown: cooldown, Clock: clk.Now}), clk
}

func TestBreakerTripsAfterThreshold(t *testing.T) {
	b, _ := newTest(3, time.Second)
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected op %d: %v", i, err)
		}
		b.Record(true)
		if got := b.State(); got != Closed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected third op: %v", err)
	}
	b.Record(true)
	if got := b.State(); got != Open {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Allow = %v, want ErrOpen", err)
	}
	st := b.Stats()
	if st.Trips != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 trip, 1 rejected", st)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTest(3, time.Second)
	b.Record(true)
	b.Record(true)
	b.Record(false)
	b.Record(true)
	b.Record(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed (streak reset by success)", got)
	}
	if st := b.Stats(); st.ConsecutiveFailures != 2 {
		t.Fatalf("ConsecutiveFailures = %d, want 2", st.ConsecutiveFailures)
	}
}

func TestBreakerProbeRecovery(t *testing.T) {
	b, clk := newTest(1, time.Second)
	b.Record(true) // trips immediately
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow before cooldown = %v, want ErrOpen", err)
	}
	clk.Advance(time.Second)
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", got)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(false)
	if got := b.State(); got != Closed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	st := b.Stats()
	if st.HalfOpens != 1 || st.ProbeSuccesses != 1 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want 1 half-open, 1 probe success, 1 recovered", st)
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTest(1, time.Second)
	b.Record(true)
	clk.Advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(true)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	// The clock has not advanced since the re-trip: still rejecting.
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow after failed probe = %v, want ErrOpen", err)
	}
	st := b.Stats()
	if st.ProbeFailures != 1 || st.Trips != 2 {
		t.Fatalf("stats = %+v, want 1 probe failure, 2 trips", st)
	}
}

// An operation bracketed by Allow and Record — the way every caller
// drives a breaker — trips it, is not run while it is open, and closes it
// as the probe after the cooldown.
func TestBreakerDo(t *testing.T) {
	b, clk := newTest(2, time.Second)
	ran := 0
	do := func(op func() error) error {
		if err := b.Allow(); err != nil {
			return err
		}
		ran++
		err := op()
		b.Record(err != nil)
		return err
	}
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if err := do(func() error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("do = %v, want boom", err)
		}
	}
	if err := do(func() error { return nil }); !errors.Is(err, ErrOpen) || ran != 2 {
		t.Fatalf("do while open = %v after %d runs, want ErrOpen and the op not run", err, ran)
	}
	clk.Advance(time.Second)
	if err := do(func() error { return nil }); err != nil {
		t.Fatalf("probe = %v, want nil", err)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed", got)
	}
}

func TestBreakerConcurrency(t *testing.T) {
	b, _ := newTest(3, time.Millisecond)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(fail bool) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 200; j++ {
				if b.Allow() == nil {
					b.Record(fail)
				}
				b.State()
				b.Stats()
			}
		}(i%2 == 0)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
