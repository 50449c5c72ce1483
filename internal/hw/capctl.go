package hw

import (
	"fmt"
	"math"
	"math/rand"

	"polyufc/internal/ir"
)

// CapControllerOptions tunes the hardened cap-application path.
type CapControllerOptions struct {
	// MaxRetries bounds the write attempts per Apply beyond the first.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// attempts (modelled seconds, charged to the machine at constant
	// power). Each wait is the current backoff scaled by a jitter factor
	// in [0.5, 1.5) from the seeded stream.
	BaseBackoff float64
	MaxBackoff  float64
	// JitterSeed seeds the backoff jitter for reproducible schedules.
	JitterSeed int64
	// BestEffort makes RunFunc continue at the current cap when an Apply
	// exhausts its retries, instead of aborting the program.
	BestEffort bool
}

// DefaultCapControllerOptions mirrors what a production ufs_cdev wrapper
// would ship: 8 retries, backoff from ~2 cap latencies up to 5 ms.
func DefaultCapControllerOptions(p *Platform) CapControllerOptions {
	return CapControllerOptions{
		MaxRetries:  8,
		BaseBackoff: 2 * p.CapLatency,
		MaxBackoff:  5e-3,
	}
}

// CapStats are the controller's reliability counters.
type CapStats struct {
	// Applies counts Apply calls; Writes counts driver write attempts.
	Applies, Writes int64
	// Retries counts backed-off re-attempts, Failures the Applies that
	// exhausted their retry budget.
	Retries, Failures int64
	// Overrides counts thermal overrides the watchdog corrected and
	// Restores the driver-default restorations performed.
	Overrides, Restores int64
}

// CapController is the hardened cap-application path: every requested cap
// is written through the fallible driver interface, verified by read-back,
// and retried under exponential backoff with jitter on transient failures
// or firmware clamping. The controller remembers the driver-default cap
// and restores it on Restore, which RunFunc defers (so also on panic), the
// way a real ufs_cdev wrapper must leave the machine unclamped on
// shutdown. Like Machine it is not safe for concurrent use.
type CapController struct {
	m          *Machine
	opts       CapControllerOptions
	rng        *rand.Rand
	defaultCap float64
	// target is the last successfully applied cap (NaN before the first
	// Apply); the watchdog reasserts it.
	target   float64
	stats    CapStats
	restored bool
}

// NewCapController wraps a machine. The driver default restored on
// shutdown is the platform's maximum uncore frequency (the UFS driver's
// reset state).
func NewCapController(m *Machine, opts CapControllerOptions) *CapController {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = DefaultCapControllerOptions(m.P).MaxRetries
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = DefaultCapControllerOptions(m.P).BaseBackoff
	}
	if opts.MaxBackoff < opts.BaseBackoff {
		opts.MaxBackoff = DefaultCapControllerOptions(m.P).MaxBackoff
	}
	return &CapController{
		m: m, opts: opts,
		rng:        rand.New(rand.NewSource(opts.JitterSeed)),
		defaultCap: m.P.UncoreMax,
		target:     math.NaN(),
	}
}

// Machine returns the wrapped machine.
func (c *CapController) Machine() *Machine { return c.m }

// Stats returns the reliability counters so far.
func (c *CapController) Stats() CapStats { return c.stats }

// Apply requests a cap and guarantees it took effect: write, verify by
// read-back (re-reading once to flush a stale value), and retry with
// exponential backoff + jitter on EBUSY or firmware clamping. It returns
// the applied cap, or the active cap and an error after MaxRetries
// unsuccessful attempts — bounded, never an unbounded spin.
func (c *CapController) Apply(ghz float64) (float64, error) {
	c.stats.Applies++
	c.restored = false
	want := c.m.P.ClampCap(ghz)
	backoff := c.opts.BaseBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			c.m.sleep(backoff * (0.5 + c.rng.Float64()))
			backoff = math.Min(backoff*2, c.opts.MaxBackoff)
		}
		c.stats.Writes++
		got, err := c.m.WriteUncoreCap(want)
		if err != nil {
			lastErr = err
			continue
		}
		rb := c.m.ReadUncoreCap()
		if rb != got {
			rb = c.m.ReadUncoreCap()
		}
		if got == want && rb == want {
			c.target = want
			return want, nil
		}
		lastErr = fmt.Errorf("hw: cap verify: requested %.1f GHz, driver applied %.1f, read back %.1f",
			want, got, rb)
	}
	c.stats.Failures++
	return c.m.UncoreCap(), fmt.Errorf("hw: cap %.1f GHz not applied after %d retries: %w",
		want, c.opts.MaxRetries, lastErr)
}

// Reassert is the watchdog: it re-reads the active cap and re-applies the
// last requested one when a thermal override silently raised it. It
// reports whether a drift was corrected.
func (c *CapController) Reassert() (bool, error) {
	if math.IsNaN(c.target) || c.m.UncoreCap() == c.target {
		return false, nil
	}
	c.stats.Overrides++
	_, err := c.Apply(c.target)
	return true, err
}

// Restore puts the driver-default cap back. When even the retried path
// fails it falls through to the infallible driver reset (closing the
// ufs_cdev handle resets the clamp), so the machine is never left capped.
// Restore is idempotent until the next Apply.
func (c *CapController) Restore() error {
	if c.restored {
		return nil
	}
	c.stats.Restores++
	_, err := c.Apply(c.defaultCap)
	if err != nil {
		c.m.SetUncoreCap(c.defaultCap)
	}
	c.restored = true
	c.target = math.NaN()
	return err
}

// RunFunc executes a function's op sequence like Machine.RunFunc, but
// applies caps through the hardened path: verified, retried writes; a
// watchdog reassert after every nest (catching silent thermal overrides);
// and driver-default restore on return, even on panic. With
// opts.BestEffort an exhausted cap write degrades to running at the
// current cap instead of aborting.
func (c *CapController) RunFunc(f *ir.Func) (RunResult, error) {
	defer c.Restore()
	tolerate := func(err error) error {
		if c.opts.BestEffort {
			return nil
		}
		return err
	}
	return c.m.runOps([]*ir.Func{f},
		func(ghz float64) error { _, err := c.Apply(ghz); return tolerate(err) },
		func() error { _, err := c.Reassert(); return tolerate(err) })
}
