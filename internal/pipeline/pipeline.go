// Package pipeline is the staged-execution engine behind the PolyUFC
// compile flow: a generic, declared list of typed stages over a shared
// state, with uniform context checking, stage-level panic recovery,
// per-stage timing/cache events, and optional per-stage memoization keyed
// by a content hash chained across the stage sequence.
//
// core declares its compile flow (preprocess, deps, tile, cachemodel,
// cache-eval, characterize, model-fit, search, cap-insert, cap-merge,
// rewrite-cleanup) as a Pipeline[*compileState]; lowering runs inside
// preprocess. The serving daemon runs pipeline prefixes (a characterize
// request stops after the characterize stage), and memoized stage
// snapshots let a later full compile of the same module resume from the
// deepest cached stage instead of redoing pluto and the cache model: the
// hits before it only look their keys up, and that stage's snapshot is
// the one installed.
package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"time"
)

// Stage is one step of a pipeline over a shared state S. Run mutates the
// state in place; the runner supplies context checking, panic recovery,
// timing, and memoization around it.
type Stage[S any] struct {
	// Name identifies the stage in events, Timings, statsz counters and
	// degrade reports. Stable stage names are part of the contract: core
	// exports them as constants so every surface agrees.
	Name string
	// Run executes the stage, mutating the state.
	Run func(ctx context.Context, s S) error
	// Salt contributes stage-specific configuration (tile sizes, search
	// objective, ...) to the memo key chain. Optional; the empty salt
	// means the stage is fully determined by its name and upstream key.
	// A salt reads configuration only, never state that a Load installs:
	// Run derives the keys of a chain of hits before it installs any of
	// their snapshots.
	Salt func(s S) string
	// Save snapshots the state as of the end of the stage for memoization.
	// Optional: a stage without Save always runs. The snapshot must be
	// safe to share across pipelines — clone anything downstream stages
	// mutate — and complete: Run installs only the deepest snapshot of a
	// chain of hits, so a Load must not rely on an earlier stage's.
	Save func(s S) any
	// Load installs a memoized snapshot into the state in place of
	// running the stage (and every stage before it). Required when Save
	// is set.
	Load func(s S, snap any)
}

// Memoizable reports whether the stage declared snapshot support.
func (st Stage[S]) Memoizable() bool { return st.Save != nil && st.Load != nil }

// Event records one stage execution for observers: Timings breakdowns,
// statsz counters and journals all derive from the same event stream.
type Event struct {
	Stage    string
	Duration time.Duration
	// CacheHit marks a stage satisfied from a memoized snapshot instead
	// of running.
	CacheHit bool
	// Err is the stage error, if any ("" on success). A string, not an
	// error: events are data shared with JSON surfaces.
	Err string
}

// RunOptions parameterizes one pipeline execution.
type RunOptions struct {
	// Cache enables per-stage memoization when non-nil and BaseKey is
	// set. Stages without Save/Load still execute, and those ahead of a
	// memoizable stage contribute to its key.
	Cache *Cache
	// BaseKey is the content hash of what every stage reads (for core: the
	// module text and the degrade policy); configuration only some stages
	// read belongs in their Salt. An empty BaseKey disables memoization even
	// with a Cache — callers use that for fault-injection runs, where
	// replaying a snapshot would skip the armed injection points.
	BaseKey string
	// Until stops the pipeline after the named stage completes — the
	// serving daemon's characterize endpoint runs the prefix ending at
	// the characterize stage. Empty runs the full pipeline.
	Until string
	// Observe, when non-nil, receives each stage event as it is
	// recorded (success and failure alike).
	Observe func(Event)
}

// UnitError is a failure of one per-unit work item inside a stage (one
// loop nest, one pass). The pipeline error wrapper recognizes it and
// avoids double-prefixing, so a strict-mode nest failure surfaces as
// "core: tile on S1_gemm: ..." exactly once. Unwrap exposes the cause
// for errors.Is (fault sentinel, context errors).
type UnitError struct {
	Stage string
	Label string
	Err   error
}

func (e *UnitError) Error() string { return fmt.Sprintf("%s on %s: %v", e.Stage, e.Label, e.Err) }

// Unwrap returns the underlying cause.
func (e *UnitError) Unwrap() error { return e.Err }

// Unit invokes one per-unit work item with panic isolation: a panicking
// unit surfaces as a *UnitError carrying the stage name and unit label
// instead of unwinding the whole pipeline. It is the single shared
// replacement for the per-package runStage helpers.
func Unit(stage, label string, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &UnitError{Stage: stage, Label: label, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	if err := f(); err != nil {
		return &UnitError{Stage: stage, Label: label, Err: err}
	}
	return nil
}

// ChainKey derives the memo key of a stage from its predecessor's key
// and the stage's own identity + salt. Chaining makes every stage key a
// content hash of the whole upstream configuration: two pipelines share
// a stage snapshot iff they agree on the input module and every stage
// up to and including this one.
func ChainKey(prev, component string) string {
	h := sha256.New()
	h.Write([]byte(prev))
	h.Write([]byte{0})
	h.Write([]byte(component))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Pipeline is a named, declared sequence of stages.
type Pipeline[S any] struct {
	name   string
	stages []Stage[S]
}

// New builds a pipeline. The name prefixes stage errors ("core: ...").
func New[S any](name string, stages ...Stage[S]) *Pipeline[S] {
	return &Pipeline[S]{name: name, stages: stages}
}

// Run executes the stages in order on s. Before each stage the context
// is checked; a cancelled context aborts with ctx.Err() unwrapped
// (cancellation is a caller decision, not a stage fault). Each stage
// runs under panic recovery; its event is recorded (and observed) even
// on failure, then the error is returned wrapped with the pipeline and
// stage name. With a cache and base key, memoizable stages are satisfied
// from snapshots when the chained content key hits.
//
// A hit's snapshot is installed only when something needs the state:
// before a later stage runs, or when the run returns successfully. A
// chain of hits therefore calls Load once, with the deepest hit's
// snapshot, and a run that ends in an error or a cancellation before
// any stage needed the state installs nothing. The hit events of a
// chain are held back from Observe until the install, whose duration is
// added to the event of the stage whose snapshot it installed.
func (p *Pipeline[S]) Run(ctx context.Context, s S, opts RunOptions) ([]Event, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Keys are chained only as far as the last memoizable stage: no later
	// key is ever looked up.
	last := -1
	if opts.Cache != nil && opts.BaseKey != "" {
		for i, st := range p.stages {
			if st.Memoizable() {
				last = i
			}
		}
	}
	events := make([]Event, 0, len(p.stages))
	observed := 0 // events[:observed] have been handed to Observe
	observe := func() {
		for ; observed < len(events); observed++ {
			if opts.Observe != nil {
				opts.Observe(events[observed])
			}
		}
	}
	// pending is the deepest hit not yet installed (its event is the last
	// one recorded); install loads it and returns how long that took.
	var pending *Stage[S]
	var pendingSnap any
	install := func() time.Duration {
		if pending == nil {
			return 0
		}
		start := time.Now()
		pending.Load(s, pendingSnap)
		d := time.Since(start)
		events[len(events)-1].Duration += d
		pending, pendingSnap = nil, nil
		observe()
		return d
	}
	key := opts.BaseKey
	for i := range p.stages {
		st := &p.stages[i]
		if err := ctx.Err(); err != nil {
			observe()
			return events, err
		}
		if i <= last {
			salt := ""
			if st.Salt != nil {
				salt = st.Salt(s)
			}
			key = ChainKey(key, st.Name+"\x00"+salt)
		}
		start := time.Now()
		var loaded time.Duration
		var hit bool
		var err error
		if i <= last && st.Memoizable() {
			var snap any
			var shared bool
			snap, shared, err = opts.Cache.DoShared(ctx, key, func() (any, error) {
				loaded = install()
				if rerr := runStage(ctx, *st, s); rerr != nil {
					return nil, rerr
				}
				return st.Save(s), nil
			})
			if err == nil && shared {
				pending, pendingSnap, hit = st, snap, true
			}
		} else {
			loaded = install()
			err = runStage(ctx, *st, s)
		}
		ev := Event{Stage: st.Name, Duration: time.Since(start) - loaded, CacheHit: hit}
		if err != nil {
			ev.Err = err.Error()
		}
		events = append(events, ev)
		if !hit {
			observe()
		}
		if err != nil {
			return events, p.wrapErr(st.Name, err)
		}
		if opts.Until != "" && st.Name == opts.Until {
			break
		}
	}
	install()
	return events, nil
}

// runStage executes one stage with panic recovery.
func runStage[S any](ctx context.Context, st Stage[S], s S) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stage %s: panic: %v", st.Name, r)
		}
	}()
	return st.Run(ctx, s)
}

// wrapErr prefixes a stage failure with the pipeline name. Context
// errors pass through unwrapped — callers test errors.Is(err,
// context.Canceled) on the return value and cancellation is not a stage
// fault. A *UnitError already names the stage, so it gets the pipeline
// prefix only.
func (p *Pipeline[S]) wrapErr(stage string, err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	var ue *UnitError
	if errors.As(err, &ue) {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return fmt.Errorf("%s: stage %s: %w", p.name, stage, err)
}
