package hw

import (
	"errors"
	"sync"

	"polyufc/internal/breaker"
	"polyufc/internal/ir"
)

// ErrBreakerOpen is returned by CapBreaker operations while the wrapped
// driver is quarantined: callers should degrade to model-only answers
// instead of queueing behind a sick driver.
var ErrBreakerOpen = errors.New("hw: cap breaker open: driver quarantined")

// CapBreaker wraps a CapController in a circuit breaker and a mutex: it
// is the concurrency-safe front door the serving daemon drives the UFS
// driver through. Consecutive verified-write failures trip it open;
// while open every operation fast-fails with ErrBreakerOpen (so request
// workers degrade to model-only answers instead of hanging in retry
// loops); after the cooldown a single probe decides recovery. Restore
// bypasses the breaker — the machine must never stay capped because the
// driver was quarantined mid-shutdown.
type CapBreaker struct {
	mu  sync.Mutex
	ctl *CapController
	brk *breaker.Breaker
}

// NewCapBreaker wraps a controller. Zero options fall back to defaults.
func NewCapBreaker(ctl *CapController, opts breaker.Options) *CapBreaker {
	return &CapBreaker{ctl: ctl, brk: breaker.New(opts)}
}

// SetCap requests a cap through the hardened Apply path, gated by the
// breaker. It returns ErrBreakerOpen without touching the driver while
// the breaker is open.
func (b *CapBreaker) SetCap(ghz float64) (float64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.brk.Allow(); err != nil {
		return b.ctl.Machine().UncoreCap(), ErrBreakerOpen
	}
	got, err := b.ctl.Apply(ghz)
	b.brk.Record(err != nil)
	return got, err
}

// RunFunc executes a compiled function through the hardened controller,
// gated by the breaker. Verified-write failures during the run — even
// ones BestEffort degraded around — feed the trip logic.
func (b *CapBreaker) RunFunc(f *ir.Func) (RunResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.brk.Allow(); err != nil {
		return RunResult{}, ErrBreakerOpen
	}
	before := b.ctl.Stats().Failures
	r, err := b.ctl.RunFunc(f)
	b.brk.Record(err != nil || b.ctl.Stats().Failures > before)
	return r, err
}

// Restore puts the driver-default cap back, bypassing the breaker state:
// shutdown must never leave the machine capped, and the controller's own
// fallback to the infallible driver reset guarantees it. A successful
// restore is evidence of recovery and closes the breaker.
func (b *CapBreaker) Restore() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	err := b.ctl.Restore()
	if err == nil {
		b.brk.Record(false)
	} else if m := b.ctl.Machine(); m.UncoreCap() == m.P.UncoreMax {
		// The verified-write path failed but the infallible driver reset
		// landed: the machine is uncapped, which is all Restore promises.
		// The driver itself is still sick, so this is not recovery
		// evidence — the breaker state is left alone.
		err = nil
	}
	return err
}

// WithMachine runs f with exclusive access to the wrapped machine,
// serialized against the breaker's own driver operations. The serving
// daemon uses it for baseline (uncapped) measurements on the shared
// machine.
func (b *CapBreaker) WithMachine(f func(*Machine) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return f(b.ctl.Machine())
}

// State returns the breaker position, reporting half-open once an open
// breaker's cooldown has elapsed (the next operation will probe).
func (b *CapBreaker) State() breaker.State { return b.brk.State() }

// Stats returns the breaker's counters.
func (b *CapBreaker) Stats() breaker.Stats { return b.brk.Stats() }

// ControllerStats returns the wrapped controller's reliability counters.
func (b *CapBreaker) ControllerStats() CapStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ctl.Stats()
}
