package pipeline

import (
	"sort"
	"sync"
	"time"
)

// StageStats aggregates the events observed for one stage name.
type StageStats struct {
	// Runs counts executions, cache hits included.
	Runs int64
	// CacheHits counts executions satisfied from a memoized snapshot.
	CacheHits int64
	// Errors counts failed executions.
	Errors int64
	// Total is the wall-clock time spent in (or loading) the stage.
	Total time.Duration
}

// Metrics aggregates stage events across pipeline runs, keyed by stage
// name. It is safe for concurrent use: pass Observe as RunOptions.Observe
// from any number of goroutines. The zero value is ready to use.
type Metrics struct {
	mu sync.Mutex
	m  map[string]StageStats
}

// Observe folds one event into the aggregate.
func (mx *Metrics) Observe(e Event) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.m == nil {
		mx.m = map[string]StageStats{}
	}
	s := mx.m[e.Stage]
	s.Runs++
	if e.CacheHit {
		s.CacheHits++
	}
	if e.Err != "" {
		s.Errors++
	}
	s.Total += e.Duration
	mx.m[e.Stage] = s
}

// Snapshot returns a copy of the per-stage aggregates.
func (mx *Metrics) Snapshot() map[string]StageStats {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	out := make(map[string]StageStats, len(mx.m))
	for k, v := range mx.m {
		out[k] = v
	}
	return out
}

// StageNames returns the observed stage names sorted, for deterministic
// rendering.
func (mx *Metrics) StageNames() []string {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	out := make([]string, 0, len(mx.m))
	for k := range mx.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
