// Package parallel is the evaluation engine behind the paper-scale sweeps:
// a bounded worker pool (ForEach/Map) and a memoizing, singleflight result
// cache (Memo). The evaluation of Sec. VII is embarrassingly parallel
// across kernels, platforms and frequency points, so every hot renderer in
// internal/experiments fans out through this package.
//
// Determinism policy: workers never render output. Map collects results
// into a slice indexed by input position, callers render from that slice
// in order, and on failure the lowest-index error is returned — so a run
// at concurrency N is byte-identical to the serial run at concurrency 1.
package parallel

import (
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
)

// Workers resolves a concurrency knob: n < 1 selects GOMAXPROCS, the
// serial fallback is 1.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(ctx, i) for i in [0, n) on at most workers goroutines.
// A workers value < 1 means GOMAXPROCS; workers == 1 runs inline with no
// goroutines (the serial fallback). The first error — lowest index, for
// determinism — cancels the derived context passed to fn, the pool drains
// its in-flight work, and that error is returned. Cancellation of ctx
// stops the pool between items and returns ctx.Err().
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstIdx = -1
		firstErr error
		next     int
		wg       sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		// A cancellation error observed after a real failure is the pool
		// draining, not a finding of its own.
		if errors.Is(err, context.Canceled) && firstErr != nil {
			mu.Unlock()
			return
		}
		if firstIdx < 0 || i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if wctx.Err() != nil {
					return
				}
				i, ok := claim()
				if !ok {
					return
				}
				if err := fn(wctx, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Map runs fn over [0, n) through ForEach and returns the results ordered
// by input index. On error the partial slice is discarded and only the
// error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// memoEntry is one in-flight or settled computation.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
	// elem is the entry's position in the LRU order once settled; nil
	// while the computation is in flight (in-flight entries are never
	// evicted — singleflight waiters hold them).
	elem *list.Element
}

// Memo is a concurrency-safe, singleflight result cache: concurrent Do
// calls for the same key run the function once and share its result.
// Failed computations are not cached — the next Do for that key retries.
// The cache is unbounded by default; SetLimit caps it with LRU eviction
// so long-running processes (the serving daemon) don't leak memory.
// The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu        sync.Mutex
	entries   map[K]*memoEntry[V]
	order     *list.List // settled keys, front = most recently used
	limit     int
	hits      int64
	misses    int64
	evictions int64
}

// Do returns the cached value for key, computing it with fn on the first
// call. Waiters whose ctx is cancelled while another goroutine computes
// return ctx.Err() without discarding the in-flight computation.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	v, _, err := m.DoShared(ctx, key, fn)
	return v, err
}

// DoShared is Do plus provenance: shared reports whether the value came
// from the cache (a settled entry or another goroutine's in-flight
// computation) rather than this call's own fn. The pipeline stage cache
// uses it to tell cache-hit events from cold runs.
func (m *Memo[K, V]) DoShared(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = map[K]*memoEntry[V]{}
	}
	if m.order == nil {
		m.order = list.New()
	}
	if e, ok := m.entries[key]; ok {
		m.hits++
		if e.elem != nil {
			m.order.MoveToFront(e.elem)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			return e.val, true, e.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.misses++
	m.mu.Unlock()

	e.val, e.err = fn()
	m.mu.Lock()
	if m.entries[key] == e { // still registered (Reset may have dropped us)
		if e.err != nil {
			delete(m.entries, key)
		} else {
			e.elem = m.order.PushFront(key)
			m.evictLocked()
		}
	}
	m.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// evictLocked drops least-recently-used settled entries until the cache
// fits the limit. In-flight entries carry no list element and survive.
func (m *Memo[K, V]) evictLocked() {
	if m.limit <= 0 || m.order == nil {
		return
	}
	for m.order.Len() > m.limit {
		back := m.order.Back()
		key := back.Value.(K)
		m.order.Remove(back)
		delete(m.entries, key)
		m.evictions++
	}
}

// SetLimit bounds the cache to at most n settled entries, evicting the
// least recently used beyond it. n <= 0 restores the unbounded default.
func (m *Memo[K, V]) SetLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.limit = n
	m.evictLocked()
}

// MemoStats is a point-in-time snapshot of a Memo's counters — the one
// shape every cache built on Memo reports (statsz, sweep summaries).
type MemoStats struct {
	Hits, Misses, Evictions int64
	// Len counts cached (settled or in-flight) entries.
	Len int
}

// Counters snapshots the hit, miss and eviction counts and the entry
// count under one lock.
func (m *Memo[K, V]) Counters() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Len: len(m.entries)}
}

// Stats returns the hit and miss counts so far.
func (m *Memo[K, V]) Stats() (hits, misses int64) {
	c := m.Counters()
	return c.Hits, c.Misses
}

// Reset drops every cached entry and zeroes the statistics. In-flight
// computations finish but are not re-registered. The limit persists.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = nil
	m.order = nil
	m.hits, m.misses, m.evictions = 0, 0, 0
}
