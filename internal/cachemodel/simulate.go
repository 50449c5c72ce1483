package cachemodel

import (
	"polyufc/internal/cachesim"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
)

// Simulate fills a Result from the trace-driven simulator: the record's
// measured producer beside Evaluate's modeled one, and the one place a
// nest is simulated and counted. hw.ProfileNest and the latency tiling
// strategy's score of small candidates both call it. The counts are
// serial.
func Simulate(nest *ir.Nest, cfg cachesim.Config) (*Result, error) {
	st, counts, err := interp.Simulate(nest, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Levels: newLevels(cfg),
		Flops:  st.Flops, Instances: st.Instances,
		Loads: st.Loads, Stores: st.Stores,
		QBytes:     (st.Loads + st.Stores) * elemSize(nest),
		ThreadsDiv: 1,
	}
	for i, ls := range counts.Levels {
		lv := &res.Levels[i]
		lv.Accesses, lv.ColdMisses, lv.CapConfMisses = ls.Accesses, ls.ColdMisses, ls.Misses-ls.ColdMisses
	}
	res.settle(cfg.Levels[0].LineSize)
	return res, nil
}

// elemSize is the element size of the first statement's first access (8
// bytes when it has none): the kernels use one element type throughout, so
// the requested bytes are the accesses times it.
func elemSize(nest *ir.Nest) int64 {
	elem, first := int64(8), true
	nest.WalkStatements(func(s *ir.Statement, _ []*ir.Loop) {
		if first && len(s.Accesses) > 0 {
			elem = s.Accesses[0].Array.ElemSize
		}
		first = false
	})
	return elem
}
