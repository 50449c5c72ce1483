package interp

import (
	"fmt"

	"polyufc/internal/ir"
)

// PartitionOuter block-partitions a nest's outermost loop into n per-thread
// nests (the static OpenMP schedule the Pluto baseline uses). The outer
// loop must be marked parallel and carry constant bounds. Statements are
// shared; only the loop structure is cloned.
func PartitionOuter(nest *ir.Nest, n int) ([]*ir.Nest, error) {
	if nest.Root == nil {
		return nil, fmt.Errorf("interp: empty nest")
	}
	root := nest.Root
	if !root.Parallel {
		return nil, fmt.Errorf("interp: outermost loop %s is not parallel", root.IV)
	}
	lo, hi, err := constantBounds(root)
	if err != nil {
		return nil, err
	}
	total := hi - lo + 1
	if total <= 0 {
		return nil, fmt.Errorf("interp: empty outer range")
	}
	if int64(n) > total {
		n = int(total)
	}
	chunk := (total + int64(n) - 1) / int64(n)
	var out []*ir.Nest
	for t := int64(0); t < int64(n); t++ {
		clo := lo + t*chunk
		chi := clo + chunk - 1
		if chi > hi {
			chi = hi
		}
		if clo > hi {
			break
		}
		sub := &ir.Loop{
			IV:       root.IV,
			Lo:       []ir.Bound{ir.BExpr(ir.AffConst(clo))},
			Hi:       []ir.Bound{ir.BExpr(ir.AffConst(chi))},
			Parallel: false,
			Body:     root.Body,
		}
		out = append(out, &ir.Nest{
			Label: fmt.Sprintf("%s_t%d", nest.Label, t),
			Root:  sub,
		})
	}
	return out, nil
}

// constantBounds extracts single constant bounds from a loop.
func constantBounds(l *ir.Loop) (lo, hi int64, err error) {
	if len(l.Lo) != 1 || len(l.Hi) != 1 {
		return 0, 0, fmt.Errorf("interp: loop %s has composite bounds", l.IV)
	}
	if !l.Lo[0].Expr.IsConst() || !l.Hi[0].Expr.IsConst() {
		return 0, 0, fmt.Errorf("interp: loop %s bounds are not constant", l.IV)
	}
	lo = ceilDiv(l.Lo[0].Expr.Const, l.Lo[0].Div)
	hi = floorDiv(l.Hi[0].Expr.Const, l.Hi[0].Div)
	return lo, hi, nil
}

// RunPartitioned executes the per-thread partitions of a nest against a
// per-core access consumer (e.g. a multi-core cache simulator), using one
// shared layout so threads address the same arrays. Threads are executed
// chunk-interleaved in round-robin order to approximate concurrent
// progress through the shared cache levels.
func RunPartitioned(nest *ir.Nest, threads int, access func(core int, addr, size int64, write bool)) (Stats, error) {
	parts, err := PartitionOuter(nest, threads)
	if err != nil {
		return Stats{}, err
	}
	layout := NewLayout(nest.Operands())
	var total Stats
	type job struct {
		prog *Program
		core int
	}
	var jobs []job
	for core, part := range parts {
		prog, err := Compile(part, layout)
		if err != nil {
			return Stats{}, err
		}
		jobs = append(jobs, job{prog: prog, core: core})
	}
	// Interleave at outer-iteration granularity: each job advances one
	// outer iteration per turn. We emulate this by splitting each thread's
	// outer range into single iterations and rotating.
	iters := make([][]*Program, len(jobs))
	for ji, j := range jobs {
		subs, err := splitOuterIterations(parts[ji], layout)
		if err != nil {
			// Fall back to whole-thread execution.
			st := j.prog.Run(TracerFunc(func(a, sz int64, w bool) {
				access(j.core, a, sz, w)
			}))
			total = addStats(total, st)
			continue
		}
		iters[ji] = subs
	}
	progress := make([]int, len(jobs))
	for {
		advanced := false
		for ji, j := range jobs {
			if iters[ji] == nil || progress[ji] >= len(iters[ji]) {
				continue
			}
			core := j.core
			st := iters[ji][progress[ji]].Run(TracerFunc(func(a, sz int64, w bool) {
				access(core, a, sz, w)
			}))
			total = addStats(total, st)
			progress[ji]++
			advanced = true
		}
		if !advanced {
			break
		}
	}
	return total, nil
}

// splitOuterIterations compiles one program per outer iteration of a
// partition (used for round-robin interleaving).
func splitOuterIterations(part *ir.Nest, layout *Layout) ([]*Program, error) {
	lo, hi, err := constantBounds(part.Root)
	if err != nil {
		return nil, err
	}
	const maxSlices = 4096
	if hi-lo+1 > maxSlices {
		return nil, fmt.Errorf("interp: too many outer iterations to slice")
	}
	var out []*Program
	for i := lo; i <= hi; i++ {
		one := &ir.Nest{Label: part.Label, Root: &ir.Loop{
			IV:   part.Root.IV,
			Lo:   []ir.Bound{ir.BExpr(ir.AffConst(i))},
			Hi:   []ir.Bound{ir.BExpr(ir.AffConst(i))},
			Body: part.Root.Body,
		}}
		prog, err := Compile(one, layout)
		if err != nil {
			return nil, err
		}
		out = append(out, prog)
	}
	return out, nil
}

func addStats(a, b Stats) Stats {
	a.Instances += b.Instances
	a.Flops += b.Flops
	a.Loads += b.Loads
	a.Stores += b.Stores
	return a
}
