package cachemodel

import (
	"polyufc/internal/cachesim"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
)

// analyzeExact fills a Result from the trace-driven simulator: the hybrid
// mode's exact path for small nests (Options.ExactBelow). The thread-
// sharing heuristic is applied to the simulated counts the same way the
// analytic path applies it to modeled counts.
func analyzeExact(nest *ir.Nest, cfg cachesim.Config, opts Options, res *Result) (*Result, error) {
	st, sim, err := interp.Simulate(nest, cfg)
	if err != nil {
		return nil, err
	}
	res.Instances = st.Instances
	res.Flops = st.Flops
	res.Loads = st.Loads
	res.Stores = st.Stores
	// Requested bytes: element size is uniform per access in our kernels;
	// derive it from the first access.
	var elem int64 = 8
	if sts := nest.Statements(); len(sts) > 0 && len(sts[0].Stmt.Accesses) > 0 {
		elem = sts[0].Stmt.Accesses[0].Array.ElemSize
	}
	res.QBytes = (st.Loads + st.Stores) * elem

	div := int64(1)
	res.ThreadsDiv = 1
	if opts.Threads > 1 {
		div = int64(opts.Threads)
		res.ThreadsDiv = opts.Threads
	}
	lineSize := cfg.Levels[0].LineSize
	for i, ls := range sim.Levels {
		res.Levels[i].Accesses = ls.Accesses
		res.Levels[i].ColdMisses = ceilI64(ls.ColdMisses, div)
		res.Levels[i].CapConfMisses = ceilI64(ls.Misses-ls.ColdMisses, div)
		res.Levels[i].Misses = res.Levels[i].ColdMisses + res.Levels[i].CapConfMisses
		if ls.Accesses > 0 {
			res.Levels[i].MissRatio = float64(res.Levels[i].Misses) / float64(ls.Accesses)
			res.Levels[i].HitRatio = 1 - res.Levels[i].MissRatio
		}
		res.Levels[i].FitWindow = -1
	}
	res.QDRAM = res.LLC().Misses * lineSize
	if res.QDRAM > 0 {
		res.OI = float64(res.Flops) / float64(res.QDRAM)
	}
	return res, nil
}
