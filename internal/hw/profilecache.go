package hw

import (
	"context"

	"polyufc/internal/interp"
	"polyufc/internal/ir"
	"polyufc/internal/parallel"
)

// profileKey identifies one memoized profile by content: the digest of
// what the simulation reads of the nest, the label the profile carries,
// and the platform, whose hierarchy is simulated and whose placement rule
// is stamped on the profile. Two nests with equal keys — a recompile of
// identical code, or a tile size the tiler left a nest alone at — have
// equal profiles.
type profileKey struct {
	prog  string
	label string
	plat  string
}

// ProfileCache is a concurrency-safe, singleflight memo of nest profiles
// shared across Machines. The exact cache simulation behind ProfileNest
// dominates sweep cost, and evaluation sweeps profile the same nests over
// and over (one fresh Machine per worker, and recompiles that produce
// identical code), so sharing profiles across machines is the difference
// between cold and steady-state sweeps.
//
// The cache keys by content, so an entry holds its profile and nothing of
// the nest it was simulated from: no compiled module stays alive for it.
// The embedded Memo supplies SetLimit (long-running processes must set
// one: it is the bound on retained profiles), the counters and Reset. The
// zero value is ready to use.
type ProfileCache struct {
	parallel.Memo[profileKey, *CacheProfile]
}

// profile returns the memoized profile of nest on platform p, simulating
// it on the first request for its content. Concurrent requests for the
// same content run the simulation once. The profile carries the
// platform's placement of the nest — its remote share — so every
// measurement of it pays the link the compiler's model charged.
func (c *ProfileCache) profile(nest *ir.Nest, p *Platform) (*CacheProfile, error) {
	return c.Do(context.Background(), profileKey{interp.DigestOf(nest), nest.Label, p.Name},
		func() (*CacheProfile, error) {
			prof, err := ProfileNest(nest, p.Cache)
			if err != nil {
				return nil, err
			}
			prof.RemoteShare = p.Backend.RemoteShare(prof.HasParallel)
			return prof, nil
		})
}
