// Package breaker is a generic three-state circuit breaker: the failure
// quarantine every unreliable dependency in the system sits behind. It
// began life inside hw.CapBreaker guarding the UFS driver; the fleet
// cache tier needed the same trip/cooldown/probe machine per peer, so
// the state machine lives here and the callers wrap it around their own
// operations (a driver write, an HTTP lookup).
//
// The contract is the classic one: consecutive failures trip the
// breaker open; while open every operation fast-fails with ErrOpen so
// callers degrade instead of queueing behind a sick dependency; after
// the cooldown a single probe operation is let through and its outcome
// closes or re-opens the breaker.
//
// A Breaker carries its own mutex and is safe for concurrent use. It
// does not execute operations itself — callers bracket their work with
// Allow and Record — so it composes with whatever locking the wrapped
// resource already needs.
package breaker

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by Allow while the breaker is quarantining its
// dependency: callers should fall back instead of waiting.
var ErrOpen = errors.New("breaker: open")

// State is the breaker's position.
type State int

// The classic three breaker states.
const (
	// Closed passes every operation through.
	Closed State = iota
	// Open fast-fails every operation with ErrOpen.
	Open
	// HalfOpen lets one probe operation through after the cooldown; its
	// outcome closes or re-opens the breaker.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state?"
}

// Options tunes a breaker.
type Options struct {
	// Threshold is the number of consecutive failures that trips the
	// breaker open.
	Threshold int
	// Cooldown is how long the breaker stays open before letting one
	// half-open probe through again.
	Cooldown time.Duration
	// Clock overrides time.Now, for deterministic tests.
	Clock func() time.Time
}

// DefaultOptions mirrors a production quarantine: trip after 3
// consecutive failures, probe again after a second.
func DefaultOptions() Options {
	return Options{Threshold: 3, Cooldown: time.Second}
}

// Stats are the breaker's reliability counters.
type Stats struct {
	// Trips counts closed/half-open -> open transitions, Probes the
	// half-open attempts, Rejected the operations fast-failed while
	// open, Recovered the open -> closed transitions.
	Trips, Probes, Rejected, Recovered int64
	// HalfOpens counts open -> half-open transitions (cooldown expiries
	// that let a probe through); ProbeSuccesses and ProbeFailures split
	// the probe outcomes, so operators — and the smoke gates — can
	// assert a dependency actually recovered through a probe rather
	// than merely cooled down.
	HalfOpens, ProbeSuccesses, ProbeFailures int64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// State is the breaker position at snapshot time.
	State State
}

// Breaker is the trip/cooldown/probe state machine. Use New; the zero
// value has a zero threshold and trips on the first failure.
type Breaker struct {
	mu       sync.Mutex
	opts     Options
	state    State
	consec   int
	openedAt time.Time
	stats    Stats
}

// New builds a breaker. Zero options fall back to defaults.
func New(opts Options) *Breaker {
	def := DefaultOptions()
	if opts.Threshold <= 0 {
		opts.Threshold = def.Threshold
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = def.Cooldown
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return &Breaker{opts: opts}
}

// Allow decides whether an operation may reach the dependency,
// advancing open -> half-open when the cooldown has elapsed. A nil
// return obliges the caller to Record the operation's outcome — the
// half-open probe's verdict is otherwise never delivered.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.opts.Clock().Sub(b.openedAt) < b.opts.Cooldown {
			b.stats.Rejected++
			return ErrOpen
		}
		b.state = HalfOpen
		b.stats.HalfOpens++
		fallthrough
	default: // HalfOpen: this caller is the probe.
		b.stats.Probes++
		return nil
	}
}

// Record feeds one operation outcome into the trip logic.
func (b *Breaker) Record(failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		// This outcome is the probe's verdict.
		if failed {
			b.stats.ProbeFailures++
		} else {
			b.stats.ProbeSuccesses++
		}
	}
	if !failed {
		b.consec = 0
		if b.state != Closed {
			b.state = Closed
			b.stats.Recovered++
		}
		return
	}
	b.consec++
	if b.state == HalfOpen || b.consec >= b.opts.Threshold {
		b.state = Open
		b.openedAt = b.opts.Clock()
		b.stats.Trips++
		b.consec = 0
	}
}

// State returns the breaker position, reporting half-open once an open
// breaker's cooldown has elapsed (the next operation will probe).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.opts.Clock().Sub(b.openedAt) >= b.opts.Cooldown {
		return HalfOpen
	}
	return b.state
}

// Stats returns the breaker's counters.
func (b *Breaker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.stats
	st.ConsecutiveFailures = b.consec
	st.State = b.state
	return st
}
