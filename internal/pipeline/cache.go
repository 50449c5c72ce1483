package pipeline

import "polyufc/internal/parallel"

// Cache memoizes stage snapshots across pipeline runs. Keys are the
// chained content hashes computed by Run, values the opaque snapshots
// returned by Stage.Save. It is singleflight: two pipelines reaching the
// same stage key concurrently compute once and share the snapshot — the
// daemon relies on this when a characterize request and a search request
// for the same kernel race through the shared prefix.
//
// The embedded Memo supplies SetLimit, Counters, Stats and Reset.
//
// The zero value is ready to use. Long-running processes must SetLimit —
// an unbounded snapshot cache is a memory leak under open-ended traffic.
type Cache struct {
	parallel.Memo[string, any]
}
