// Package faults is a deterministic, seeded fault-injection registry for
// robustness testing of the capping runtime (Sec. VII-F models the Intel
// UFS driver as flaky: transient EBUSY, firmware clamping, thermal
// overrides). Packages declare named fault points and probe them with
// Hit; a Registry enables points with probability- or sequence-based
// triggers. A nil *Registry is the disabled state: every method is a
// nil-receiver no-op, so instrumented code pays one pointer test per
// probe and nothing else.
//
// All triggering is deterministic for a fixed seed and call sequence, so
// injection tests are reproducible and shrinkable.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrInjected is the default error returned by a firing fault point.
var ErrInjected = errors.New("injected fault")

// Error wraps ErrInjected (or a custom error) with the fault point name.
type Error struct {
	Point string
	Err   error
}

func (e *Error) Error() string { return "faults: " + e.Point + ": " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Spec configures one fault point. Exactly one trigger is consulted: On
// (1-based call indices) when non-empty, otherwise the probability P.
type Spec struct {
	// P is the per-call firing probability in (0, 1], drawn from the
	// registry's seeded stream.
	P float64
	// On fires on exactly these 1-based call indices of the point.
	On []int64
	// Times bounds the total number of firings; 0 means unlimited.
	Times int64
	// Err overrides ErrInjected as the underlying error.
	Err error
	// Panic makes Hit panic with the fault error instead of returning it
	// (exercises the per-stage panic recovery paths).
	Panic bool
}

type point struct {
	spec  Spec
	calls int64
	fired int64
}

// Registry holds the enabled fault points. It is safe for concurrent use;
// the zero value is not valid — use New.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// New returns an empty registry with a seeded probability stream.
func New(seed int64) *Registry {
	return &Registry{rng: rand.New(rand.NewSource(seed)), points: map[string]*point{}}
}

// Enable arms a fault point (replacing any previous spec and resetting
// its counters).
func (r *Registry) Enable(name string, s Spec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points[name] = &point{spec: s}
	r.mu.Unlock()
}

// Hit probes a fault point: it returns nil when the registry is nil, the
// point is not enabled, or the trigger does not fire on this call;
// otherwise it returns (or panics with, per Spec.Panic) an *Error for the
// point.
func (r *Registry) Hit(name string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	p.calls++
	fire := false
	if len(p.spec.On) > 0 {
		for _, i := range p.spec.On {
			if i == p.calls {
				fire = true
				break
			}
		}
	} else if p.spec.P > 0 {
		fire = r.rng.Float64() < p.spec.P
	}
	if fire && p.spec.Times > 0 && p.fired >= p.spec.Times {
		fire = false
	}
	if !fire {
		r.mu.Unlock()
		return nil
	}
	p.fired++
	under := p.spec.Err
	if under == nil {
		under = ErrInjected
	}
	doPanic := p.spec.Panic
	r.mu.Unlock()
	err := &Error{Point: name, Err: under}
	if doPanic {
		panic(err)
	}
	return err
}

// Calls returns how often a point has been probed.
func (r *Registry) Calls(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.calls
	}
	return 0
}

// Fired returns how often a point has fired.
func (r *Registry) Fired(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.fired
	}
	return 0
}

// Points lists the enabled point names, sorted.
func (r *Registry) Points() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for name := range r.points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse builds a registry from a CLI spec: semicolon-separated
// name=trigger entries, where trigger is a probability ("ufs.write.ebusy=0.3"),
// one or more 1-based call indices ("core.cachemodel=@2" or "=@1+4"), or a
// probability with a firing bound ("ufs.thermal.override=0.5x2"). An empty
// spec yields a nil (disabled) registry.
func Parse(spec string, seed int64) (*Registry, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	r := New(seed)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, trig, ok := strings.Cut(entry, "=")
		if !ok || name == "" || trig == "" {
			return nil, fmt.Errorf("faults: bad entry %q (want name=trigger)", entry)
		}
		var s Spec
		if after, isSeq := strings.CutPrefix(trig, "@"); isSeq {
			for _, part := range strings.Split(after, "+") {
				i, err := strconv.ParseInt(part, 10, 64)
				if err != nil || i < 1 {
					return nil, fmt.Errorf("faults: bad call index %q in %q", part, entry)
				}
				s.On = append(s.On, i)
			}
		} else {
			prob := trig
			if p, times, hasTimes := strings.Cut(trig, "x"); hasTimes {
				n, err := strconv.ParseInt(times, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faults: bad firing bound %q in %q", times, entry)
				}
				s.Times = n
				prob = p
			}
			p, err := strconv.ParseFloat(prob, 64)
			if err != nil || p <= 0 || p > 1 {
				return nil, fmt.Errorf("faults: bad probability %q in %q (want 0 < p <= 1)", prob, entry)
			}
			s.P = p
		}
		r.Enable(name, s)
	}
	return r, nil
}
