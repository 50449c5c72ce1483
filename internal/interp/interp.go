// Package interp executes affine loop nests, streaming their memory access
// trace to a consumer (typically the cache simulator) and counting
// arithmetic operations. Nests are first compiled to a flat form with
// slot-indexed induction variables and pre-linearized access address
// polynomials, so large iteration spaces run at tens of millions of
// statement instances per second.
package interp

import (
	"fmt"

	"polyufc/internal/ir"
)

// Tracer consumes the memory access stream of an execution.
type Tracer interface {
	// Access reports one memory reference.
	Access(addr, size int64, write bool)
}

// TracerFunc adapts a function to Tracer.
type TracerFunc func(addr, size int64, write bool)

// Access implements Tracer.
func (f TracerFunc) Access(addr, size int64, write bool) { f(addr, size, write) }

// NullTracer discards the trace (flop counting only).
type NullTracer struct{}

// Access implements Tracer.
func (NullTracer) Access(int64, int64, bool) {}

// Layout assigns page-aligned, non-overlapping base addresses to arrays.
type Layout struct {
	Base map[*ir.Array]int64
	End  int64
}

// NewLayout lays out the arrays contiguously starting at 4 KiB, each
// aligned to 4 KiB (matching a malloc'd buffer per tensor).
func NewLayout(arrays []*ir.Array) *Layout {
	const page = 4096
	l := &Layout{Base: map[*ir.Array]int64{}, End: page}
	for _, a := range arrays {
		l.Base[a] = l.End
		sz := a.SizeBytes()
		l.End += (sz + page - 1) / page * page
	}
	return l
}

// Stats summarizes one execution.
type Stats struct {
	Instances int64 // statement instances executed
	Flops     int64
	Loads     int64
	Stores    int64
}

// compiled form ------------------------------------------------------------

// cBound is a compiled bound: (coef . env + const) div Div.
type cBound struct {
	coef []int64 // per IV slot
	k    int64
	div  int64
}

func (b cBound) eval(env []int64) int64 {
	v := b.k
	for i, c := range b.coef {
		if c != 0 {
			v += c * env[i]
		}
	}
	return v
}

// cAccess is a compiled access: addr = base + elem * (coef . env + const).
type cAccess struct {
	coef  []int64
	k     int64
	size  int64
	write bool
}

// cStmt is a compiled statement.
type cStmt struct {
	accs  []cAccess
	flops int64
}

// cLoop is a compiled loop level.
type cLoop struct {
	slot     int
	lo, hi   []cBound
	parallel bool
	body     []cNode
}

type cNode struct {
	loop *cLoop
	stmt *cStmt
}

// Program is a compiled nest ready for repeated execution.
type Program struct {
	root   *cLoop
	nIVs   int
	layout *Layout
}

// Compile lowers a nest to its executable form using the given layout
// (which must cover every array the nest accesses).
func Compile(nest *ir.Nest, layout *Layout) (*Program, error) {
	// Assign IV slots in loop order.
	slots := map[string]int{}
	nest.WalkLoops(func(l *ir.Loop, _ int) {
		if _, ok := slots[l.IV]; !ok {
			slots[l.IV] = len(slots)
		}
	})
	n := len(slots)
	compileExpr := func(e ir.AffExpr) ([]int64, int64, error) {
		coef := make([]int64, n)
		for iv, c := range e.Coef {
			s, ok := slots[iv]
			if !ok {
				return nil, 0, fmt.Errorf("interp: unknown IV %q", iv)
			}
			coef[s] = c
		}
		return coef, e.Const, nil
	}
	var compileLoop func(l *ir.Loop) (*cLoop, error)
	compileLoop = func(l *ir.Loop) (*cLoop, error) {
		cl := &cLoop{slot: slots[l.IV], parallel: l.Parallel}
		for _, b := range l.Lo {
			coef, k, err := compileExpr(b.Expr)
			if err != nil {
				return nil, err
			}
			cl.lo = append(cl.lo, cBound{coef: coef, k: k, div: b.Div})
		}
		for _, b := range l.Hi {
			coef, k, err := compileExpr(b.Expr)
			if err != nil {
				return nil, err
			}
			cl.hi = append(cl.hi, cBound{coef: coef, k: k, div: b.Div})
		}
		for _, node := range l.Body {
			switch x := node.(type) {
			case *ir.Loop:
				sub, err := compileLoop(x)
				if err != nil {
					return nil, err
				}
				cl.body = append(cl.body, cNode{loop: sub})
			case *ir.Statement:
				cs, err := compileStmt(x, layout, compileExpr)
				if err != nil {
					return nil, err
				}
				cl.body = append(cl.body, cNode{stmt: cs})
			}
		}
		return cl, nil
	}
	root, err := compileLoop(nest.Root)
	if err != nil {
		return nil, err
	}
	return &Program{root: root, nIVs: n, layout: layout}, nil
}

func compileStmt(s *ir.Statement, layout *Layout, compileExpr func(ir.AffExpr) ([]int64, int64, error)) (*cStmt, error) {
	cs := &cStmt{flops: s.Flops}
	for _, acc := range s.Accesses {
		base, ok := layout.Base[acc.Array]
		if !ok {
			return nil, fmt.Errorf("interp: array %s not in layout", acc.Array.Name)
		}
		strides := acc.Array.Strides()
		if len(acc.Index) != len(strides) {
			return nil, fmt.Errorf("interp: access to %s has %d indices for %d dims",
				acc.Array.Name, len(acc.Index), len(strides))
		}
		// Linearize: addr = base + elem*(sum_d stride_d * idx_d).
		lin := ir.AffConst(0)
		for d, e := range acc.Index {
			lin = lin.Add(e.Scale(strides[d]))
		}
		lin = lin.Scale(acc.Array.ElemSize)
		coef, k, err := compileExpr(lin)
		if err != nil {
			return nil, err
		}
		cs.accs = append(cs.accs, cAccess{
			coef: coef, k: base + k, size: acc.Array.ElemSize, write: acc.Write,
		})
	}
	return cs, nil
}

// Run executes the program sequentially, streaming accesses to the tracer.
func (p *Program) Run(tracer Tracer) Stats {
	env := make([]int64, p.nIVs)
	var st Stats
	p.runLoop(p.root, env, tracer, &st)
	return st
}

func (p *Program) runLoop(l *cLoop, env []int64, tracer Tracer, st *Stats) {
	lo := int64(-1 << 62)
	for _, b := range l.lo {
		v := ceilDiv(b.eval(env), b.div)
		if v > lo {
			lo = v
		}
	}
	hi := int64(1 << 62)
	for _, b := range l.hi {
		v := floorDiv(b.eval(env), b.div)
		if v < hi {
			hi = v
		}
	}
	for iv := lo; iv <= hi; iv++ {
		env[l.slot] = iv
		for _, node := range l.body {
			if node.loop != nil {
				p.runLoop(node.loop, env, tracer, st)
				continue
			}
			s := node.stmt
			st.Instances++
			st.Flops += s.flops
			for i := range s.accs {
				a := &s.accs[i]
				addr := a.k
				for j, c := range a.coef {
					if c != 0 {
						addr += c * env[j]
					}
				}
				if a.write {
					st.Stores++
				} else {
					st.Loads++
				}
				tracer.Access(addr, a.size, a.write)
			}
		}
	}
}

// RunNest is a convenience: lay out, compile and run a nest in one call.
func RunNest(nest *ir.Nest, tracer Tracer) (Stats, error) {
	layout := NewLayout(nest.Operands())
	prog, err := Compile(nest, layout)
	if err != nil {
		return Stats{}, err
	}
	return prog.Run(tracer), nil
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}
