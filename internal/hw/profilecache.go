package hw

import (
	"context"

	"polyufc/internal/ir"
	"polyufc/internal/parallel"
)

// profileKey identifies one memoized profile. Cache behaviour depends only
// on the nest and the platform's cache hierarchy, so nest identity plus
// platform name is an exact key as long as nests are not mutated after
// compilation — which core.Compile guarantees (Results are shared
// read-only).
type profileKey struct {
	nest *ir.Nest
	plat string
}

// ProfileCache is a concurrency-safe, singleflight memo of nest profiles
// shared across Machines. The exact cache simulation behind ProfileNest
// dominates sweep cost, and evaluation sweeps profile the same compiled
// nests over and over (one fresh Machine per worker), so sharing profiles
// across machines is the difference between cold and steady-state sweeps.
//
// The cache keys by nest pointer, so an entry keeps its nest — and through
// it the compiled module — alive until it is evicted or the cache is
// reset; nothing else on the measured path does (a Machine with a shared
// cache attached holds no profiles of its own). The embedded Memo supplies
// SetLimit (long-running processes must set one: it is the bound on
// retained nests), the counters and Reset. The zero value is ready to use.
type ProfileCache struct {
	parallel.Memo[profileKey, *CacheProfile]
}

// profile returns the memoized profile of nest on platform p, simulating
// it on the first request. Concurrent requests for the same nest run the
// simulation once. The profile carries the platform's placement of the
// nest — its remote share — so every measurement of it pays the link the
// compiler's model charged.
func (c *ProfileCache) profile(nest *ir.Nest, p *Platform) (*CacheProfile, error) {
	return c.Do(context.Background(), profileKey{nest, p.Name},
		func() (*CacheProfile, error) {
			prof, err := ProfileNest(nest, p.Cache)
			if err != nil {
				return nil, err
			}
			prof.RemoteShare = p.Backend.RemoteShare(prof.HasParallel)
			return prof, nil
		})
}
