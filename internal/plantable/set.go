package plantable

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"polyufc/internal/model"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
)

// Stats are a Set's serve-path counters: Hits answered from a table,
// Fallbacks deferred to live search (no table for the backend/options,
// off-axis kernel, or a steep cell), Stale lookups rejected because the
// table no longer matches the target.
type Stats struct {
	Loaded    int   `json:"loaded"`
	Hits      int64 `json:"hits"`
	Fallbacks int64 `json:"fallbacks"`
	Stale     int64 `json:"stale"`
}

// Set holds the loaded plan tables of a process (one per backend,
// search configuration and tiling strategy) plus the
// hit/fallback/staleness counters the daemon reports in /statsz. It is
// safe for concurrent use.
type Set struct {
	mu     sync.RWMutex
	tables map[string]*Table // keyed by backend|objective|epsilon|tiling

	hits      atomic.Int64
	fallbacks atomic.Int64
	stale     atomic.Int64
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{tables: map[string]*Table{}}
}

func tableKey(backend, objective string, eps float64, tilingName string, socket int) string {
	if tilingName == "" {
		tilingName = tiling.NamePluto
	}
	key := fmt.Sprintf("%s|%s|%g|%s", backend, objective, eps, tilingName)
	if socket != 0 {
		// Socket 0 keeps the pre-topology key, so single-socket sets
		// fingerprint identically.
		key += fmt.Sprintf("|s%d", socket)
	}
	return key
}

// Add validates and registers a table. A table for the same backend,
// search configuration, tiling strategy and socket domain replaces the
// previous one.
func (s *Set) Add(tb *Table) error {
	if err := tb.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tables[tableKey(tb.Backend, tb.Objective, tb.Epsilon, tb.TilingName(), tb.Socket)] = tb
	return nil
}

// Len returns the number of loaded tables.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tables)
}

// Tables returns the loaded tables in deterministic order.
func (s *Set) Tables() []*Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.tables))
	for k := range s.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Table, len(keys))
	for i, k := range keys {
		out[i] = s.tables[k]
	}
	return out
}

// For returns the table answering for a target, search configuration,
// tiling strategy (a tiling.Spec fingerprint; "" means pluto) and socket
// domain, or nil when none is loaded. A loaded table whose backend
// description or calibration hash no longer matches counts as stale and
// is not returned — staleness is surfaced, never silently served around.
func (s *Set) For(t *roofline.Target, opts search.Options, tilingName string, socket int) *Table {
	if t == nil || t.Backend == nil {
		return nil
	}
	s.mu.RLock()
	tb := s.tables[tableKey(t.Backend.Name, opts.Objective.String(), opts.Epsilon, tilingName, socket)]
	s.mu.RUnlock()
	if tb == nil {
		return nil
	}
	if err := tb.Matches(t); err != nil {
		if errors.Is(err, ErrStale) {
			s.stale.Add(1)
		}
		return nil
	}
	return tb
}

// Lookup answers one kernel's capping question from the set, counting
// the outcome: a table hit returns the selected cap frequency (an exact
// grid point); anything else — no table, stale table, off-axis kernel,
// steep cell — counts a fallback (or staleness) and reports false so the
// caller runs live search. socket selects the table's uncore domain (0
// for every nest modelled with socket 0's calibration).
func (s *Set) Lookup(t *roofline.Target, opts search.Options, tilingName string, socket int, m *model.Model) (float64, bool) {
	tb := s.For(t, opts, tilingName, socket)
	if tb == nil {
		s.fallbacks.Add(1)
		return 0, false
	}
	f, ok := tb.Lookup(m)
	if !ok {
		s.fallbacks.Add(1)
		return 0, false
	}
	s.hits.Add(1)
	return f, true
}

// Stats snapshots the serve-path counters.
func (s *Set) Stats() Stats {
	return Stats{
		Loaded:    s.Len(),
		Hits:      s.hits.Load(),
		Fallbacks: s.fallbacks.Load(),
		Stale:     s.stale.Load(),
	}
}

// Fingerprint canonicalizes the set's contents for content-addressed
// stage memoization: two pipelines whose sets fingerprint equally answer
// every lookup identically.
func (s *Set) Fingerprint() string {
	if s == nil {
		return ""
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.tables))
	for k, tb := range s.tables {
		keys = append(keys, k+"|"+tb.BackendHash+"|"+tb.CalHash)
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
