// Package interp executes affine loop nests, streaming their memory access
// trace to a consumer (typically the cache simulator) and counting
// arithmetic operations. Nests are first compiled to a flat form in which
// every access address and every loop-bound numerator is a numbered value
// registered with the loops whose induction variable it depends on; a run
// keeps those values as running sums, and hands an innermost loop to the
// consumer whole — its references as strided streams plus a trip count —
// so large iteration spaces run at hundreds of millions of references per
// second. A loop whose innermost loop runs once or twice is handed over
// the same way, its short inner loops unrolled into one body.
package interp

import (
	"fmt"

	"polyufc/internal/cachesim"
	"polyufc/internal/ir"
)

// Consumer receives the access stream of an execution a loop body at a
// time, in execution order: trip iterations, each referencing
// streams[i].Addr (Stride further every iteration) for each i in order. A
// statement outside an innermost loop arrives with trip 1. A body may also
// be a short nest unrolled: every reference one execution of a loop's
// inner loops makes, in order, stepping by the outer loop's coefficient.
// The slice is the run's scratch: the consumer may advance it, and must
// not keep it.
type Consumer interface {
	AccessStreams(streams []cachesim.Stream, trip int64)
}

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

// AccessStreams implements Consumer.
func (NullTracer) AccessStreams([]cachesim.Stream, int64) {}

// perAccess adapts a Tracer to Consumer, one Access per reference.
type perAccess struct{ t Tracer }

func (p perAccess) AccessStreams(streams []cachesim.Stream, trip int64) {
	for ; trip > 0; trip-- {
		for i := range streams {
			st := &streams[i]
			p.t.Access(st.Addr, int64(st.Size), st.Write)
			st.Addr += st.Stride
		}
	}
}

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

// A Program numbers every access address and every bound numerator of the
// nest: value id is vals[id] of a run, an affine function
// k + sum(coef_l * iv_l) over the enclosing loops l. Each loop lists the
// values that depend on its IV (sparsely, as deps), and a run maintains
// vals incrementally: entering a loop at lo adds coef*lo, each further
// iteration adds coef, leaving takes coef*hi back.

// dep is one value a loop's IV contributes to.
type dep struct {
	id   int32
	coef int64
}

// cBound is a compiled bound: vals[id] div Div.
type cBound struct {
	id  int32
	div int64
}

// cBody is straight-line code — one statement, or all the statements of a
// leaf loop — with what one execution of it counts.
type cBody struct {
	// ids[i] is the value holding reference i's address. streams[i] is its
	// template: size, direction and, in a leaf loop's body, the address's
	// coefficient on that loop's IV (which is in no deps: the consumer
	// steps it). An execution fills in Addr.
	ids     []int32
	streams []cachesim.Stream
	per     Stats
}

// cLoop is a compiled loop level.
type cLoop struct {
	lo, hi []cBound
	deps   []dep
	body   []cNode
	// leaf is set when the body holds only statements — the innermost
	// loops, where nearly every reference comes from. It is those
	// statements in order, and body is empty: the loop is not walked but
	// handed to the consumer, streams and trip count.
	leaf *cBody
	// step is set when the loop may fold: its body is one loop, whose body
	// is one loop, and so on down to a short leaf, and no bound along that
	// chain reads this loop's IV. Every iteration then executes the same chain,
	// its references only displaced by this loop's coefficient on them:
	// step[i] is that coefficient for the leaf's reference i.
	step []int64
	// short marks a leaf that runs at most foldTrip iterations wherever it
	// runs: some upper bound exceeds some lower one by a constant.
	short bool
}

// A fold unrolls one execution of a loop's chain into the run's scratch
// and hands the loop over as that body: one consumer call instead of one
// per leaf execution. The chain must end in a short leaf — a longer one
// is a stream the consumer skips along, line by line, better than it
// would walk an unrolled copy — and the body may hold at most foldRefs
// references.
const (
	foldTrip = 2
	foldRefs = 64
)

// chain returns the loop's body when that is one loop, whose body is one
// loop, and so on down to a short leaf.
func (l *cLoop) chain() *cLoop {
	if len(l.body) != 1 || l.body[0].loop == nil {
		return nil
	}
	if c := l.body[0].loop; c.short || c.chain() != nil {
		return c
	}
	return nil
}

// isShort reports whether a loop runs at most foldTrip iterations wherever
// it runs: whether an upper bound b/d exceeds a lower one a/d by a small
// enough constant, as floor(b/d) - ceil(a/d) <= (b-a)/d.
func isShort(l *ir.Loop) bool {
	for _, lo := range l.Lo {
		for _, hi := range l.Hi {
			d := hi.Expr.Add(lo.Expr.Scale(-1))
			if d.IsConst() && lo.Div == hi.Div && floorDiv(d.Const, hi.Div) < foldTrip {
				return true
			}
		}
	}
	return false
}

// foldStep returns what l.step holds: nil unless l has a chain and none of
// the chain's bounds reads l's IV — none of their values is in l.deps.
func (l *cLoop) foldStep() []int64 {
	c := l.chain()
	if c == nil {
		return nil
	}
	read := map[int32]int64{}
	for _, d := range l.deps {
		read[d.id] = d.coef
	}
	for ; ; c = c.body[0].loop {
		for _, bs := range [2][]cBound{c.lo, c.hi} {
			for _, b := range bs {
				if _, ok := read[b.id]; ok {
					return nil
				}
			}
		}
		if c.leaf != nil {
			break
		}
	}
	step := make([]int64, len(c.leaf.ids))
	for i, id := range c.leaf.ids {
		step[i] = read[id]
	}
	return step
}

type cNode struct {
	loop *cLoop
	stmt *cBody
}

// Program is a compiled nest ready for repeated execution. It is immutable
// after Compile: every run has its own values, so one Program may run on
// several goroutines at once.
type Program struct {
	root *cLoop
	// init holds each value's constant term: vals before any loop is
	// entered.
	init []int64
	// widest is the most references any one body makes, folded bodies
	// included.
	widest int
}

// compiler carries Compile's state: the loops in scope, innermost last,
// and the values numbered so far.
type compiler struct {
	layout *Layout
	scope  []scoped
	init   []int64
	widest int
}

type scoped struct {
	iv   string
	loop *cLoop
}

// Compile lowers a nest to its executable form using the given layout
// (which must cover every array the nest accesses). An expression may
// only name the IVs of loops that enclose it.
func Compile(nest *ir.Nest, layout *Layout) (*Program, error) {
	if nest.Root == nil {
		return nil, fmt.Errorf("interp: empty nest")
	}
	c := &compiler{layout: layout}
	root, err := c.loop(nest.Root)
	if err != nil {
		return nil, err
	}
	return &Program{root: root, init: c.init, widest: c.widest}, nil
}

// value numbers the affine expression e and registers it with every loop
// in scope whose IV it uses, except skip (a leaf loop's own references are
// stepped by the consumer). It returns the id and the coefficient on
// skip's IV.
func (c *compiler) value(e ir.AffExpr, skip *cLoop) (id int32, stride int64, err error) {
	id = int32(len(c.init))
	c.init = append(c.init, e.Const)
	for _, t := range e.Terms() {
		l := c.resolve(t.IV)
		switch {
		case l == nil:
			return 0, 0, fmt.Errorf("interp: IV %q is not an enclosing loop", t.IV)
		case l == skip:
			stride = t.C
		default:
			l.deps = append(l.deps, dep{id: id, coef: t.C})
		}
	}
	return id, stride, nil
}

// resolve finds the innermost loop in scope with the given IV.
func (c *compiler) resolve(iv string) *cLoop {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].iv == iv {
			return c.scope[i].loop
		}
	}
	return nil
}

func (c *compiler) bounds(bs []ir.Bound) ([]cBound, error) {
	out := make([]cBound, 0, len(bs))
	for _, b := range bs {
		id, _, err := c.value(b.Expr, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, cBound{id: id, div: b.Div})
	}
	return out, nil
}

func (c *compiler) loop(l *ir.Loop) (*cLoop, error) {
	cl := &cLoop{leaf: &cBody{}}
	// Bounds are evaluated before the loop's own IV exists.
	var err error
	if cl.lo, err = c.bounds(l.Lo); err != nil {
		return nil, err
	}
	if cl.hi, err = c.bounds(l.Hi); err != nil {
		return nil, err
	}
	for _, node := range l.Body {
		if _, ok := node.(*ir.Loop); ok {
			cl.leaf = nil
		}
	}
	cl.short = cl.leaf != nil && isShort(l)
	c.scope = append(c.scope, scoped{l.IV, cl})
	defer func() { c.scope = c.scope[:len(c.scope)-1] }()
	for _, node := range l.Body {
		switch x := node.(type) {
		case *ir.Loop:
			sub, err := c.loop(x)
			if err != nil {
				return nil, err
			}
			cl.body = append(cl.body, cNode{loop: sub})
		case *ir.Statement:
			if cl.leaf != nil {
				err = c.stmt(x, cl.leaf, cl)
			} else {
				b := &cBody{}
				cl.body = append(cl.body, cNode{stmt: b})
				err = c.stmt(x, b, nil)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	// The body is compiled, so deps lists every value that reads the IV.
	if cl.step = cl.foldStep(); cl.step != nil {
		c.widest = max(c.widest, foldRefs)
	}
	return cl, nil
}

// stmt appends a statement to the body b. leaf is the loop b is the whole
// body of, if any.
func (c *compiler) stmt(s *ir.Statement, b *cBody, leaf *cLoop) error {
	b.per.Instances++
	b.per.Flops += s.Flops
	for _, acc := range s.Accesses {
		base, ok := c.layout.Base[acc.Array]
		if !ok {
			return fmt.Errorf("interp: array %s not in layout", acc.Array.Name)
		}
		strides := acc.Array.Strides()
		if len(acc.Index) != len(strides) {
			return fmt.Errorf("interp: access to %s has %d indices for %d dims",
				acc.Array.Name, len(acc.Index), len(strides))
		}
		// Linearize: addr = base + elem*(sum_d stride_d * idx_d).
		lin := ir.AffConst(base)
		for d, e := range acc.Index {
			lin = lin.Add(e.Scale(strides[d] * acc.Array.ElemSize))
		}
		id, stride, err := c.value(lin, leaf)
		if err != nil {
			return err
		}
		b.ids = append(b.ids, id)
		b.streams = append(b.streams, cachesim.Stream{Stride: stride, Size: int32(acc.Array.ElemSize), Write: acc.Write})
		if acc.Write {
			b.per.Stores++
		} else {
			b.per.Loads++
		}
	}
	c.widest = max(c.widest, len(b.ids))
	return nil
}

// run is the state of one execution.
type run struct {
	vals []int64
	cur  []cachesim.Stream // the body being handed over
	out  Consumer
	st   Stats
	// folds counts the loops handed over folded, and bails the folds
	// abandoned after part of the chain was unrolled.
	folds, bails int
}

// Run executes the program sequentially, streaming accesses to the tracer
// (one call per reference, unless the tracer is a Consumer).
func (p *Program) Run(tracer Tracer) Stats {
	if c, ok := tracer.(Consumer); ok {
		return p.RunStreams(c)
	}
	return p.RunStreams(perAccess{tracer})
}

// RunStreams executes the program sequentially, handing the access stream
// to the consumer a loop body at a time.
func (p *Program) RunStreams(out Consumer) Stats {
	return p.execute(out).st
}

// execute is RunStreams returning the finished run.
func (p *Program) execute(out Consumer) *run {
	r := &run{
		vals: append([]int64(nil), p.init...),
		cur:  make([]cachesim.Stream, p.widest),
		out:  out,
	}
	r.loop(p.root)
	return r
}

// loop is the one loop walker: bounds from the running sums, the IV's
// contribution added on entry and per iteration and taken back on exit.
func (r *run) loop(l *cLoop) {
	lo, hi := r.bounds(l)
	if lo > hi {
		return
	}
	if l.leaf != nil {
		r.exec(l.leaf, lo, hi-lo+1)
		return
	}
	if l.step != nil && r.fold(l, lo, hi) {
		return
	}
	for _, d := range l.deps {
		r.vals[d.id] += d.coef * lo
	}
	for iv := lo; ; iv++ {
		for _, node := range l.body {
			if node.loop != nil {
				r.loop(node.loop)
			} else {
				r.exec(node.stmt, 0, 1)
			}
		}
		if iv == hi {
			break
		}
		for _, d := range l.deps {
			r.vals[d.id] += d.coef
		}
	}
	for _, d := range l.deps {
		r.vals[d.id] -= d.coef * hi
	}
}

// unrolling is a fold in progress: the body so far is r.cur[:n], one
// execution of it counts per, and its references step by step from their
// addresses at the folded loop's first iteration, at.
type unrolling struct {
	step []int64
	at   int64
	n    int
	per  Stats
}

// fold hands iterations lo..hi of a foldable loop to the consumer as one
// body, its chain unrolled, and reports whether it did: not when the body
// would exceed foldRefs references. Either way vals are as it found them.
func (r *run) fold(l *cLoop, lo, hi int64) bool {
	u := unrolling{step: l.step, at: lo}
	if !r.unroll(l.body[0].loop, &u) {
		if u.n > 0 {
			r.bails++
		}
		return false
	}
	r.folds++
	r.st.add(u.per, hi-lo+1)
	if u.n > 0 {
		r.out.AccessStreams(r.cur[:u.n], hi-lo+1)
	}
	return true
}

// unroll appends one execution of loop c, every iteration of it and of the
// loops it holds, to the fold in progress. It reports false when the fold
// exceeds its limits, with vals restored.
func (r *run) unroll(c *cLoop, u *unrolling) bool {
	lo, hi := r.bounds(c)
	if lo > hi {
		return true
	}
	if b := c.leaf; b != nil {
		trip := hi - lo + 1 // at most foldTrip: b is short
		if u.n+int(trip)*len(b.ids) > foldRefs {
			return false
		}
		u.per.add(b.per, trip)
		for iv := lo; iv <= hi; iv++ {
			for i, id := range b.ids {
				s := &b.streams[i]
				r.cur[u.n] = cachesim.Stream{Addr: r.vals[id] + s.Stride*iv + u.step[i]*u.at, Stride: u.step[i], Size: s.Size, Write: s.Write}
				u.n++
			}
		}
		return true
	}
	inner := c.body[0].loop
	for _, d := range c.deps {
		r.vals[d.id] += d.coef * lo
	}
	ok := true
	for iv := lo; ; iv++ {
		if ok = r.unroll(inner, u); !ok || iv == hi {
			hi = iv
			break
		}
		for _, d := range c.deps {
			r.vals[d.id] += d.coef
		}
	}
	for _, d := range c.deps {
		r.vals[d.id] -= d.coef * hi
	}
	return ok
}

// bounds evaluates a loop's range from the running sums.
func (r *run) bounds(l *cLoop) (lo, hi int64) {
	lo = int64(-1 << 62)
	for _, b := range l.lo {
		v := r.vals[b.id]
		if b.div != 1 {
			v = ceilDiv(v, b.div)
		}
		if v > lo {
			lo = v
		}
	}
	hi = int64(1 << 62)
	for _, b := range l.hi {
		v := r.vals[b.id]
		if b.div != 1 {
			v = floorDiv(v, b.div)
		}
		if v < hi {
			hi = v
		}
	}
	return lo, hi
}

// add counts n executions of what per counts.
func (s *Stats) add(per Stats, n int64) {
	s.Instances += n * per.Instances
	s.Flops += n * per.Flops
	s.Loads += n * per.Loads
	s.Stores += n * per.Stores
}

// exec runs trip executions of a body, the first at IV value lo of the
// loop that steps its streams: the counts are products, the references the
// consumer's to walk.
func (r *run) exec(b *cBody, lo, trip int64) {
	r.st.add(b.per, trip)
	if len(b.ids) == 0 {
		return
	}
	cur := r.cur[:len(b.ids)]
	copy(cur, b.streams)
	for i, id := range b.ids {
		cur[i].Addr = r.vals[id] + b.streams[i].Stride*lo
	}
	r.out.AccessStreams(cur, trip)
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

// Simulate is RunNest into the exact cache simulator: the nest's trace is
// fed, a loop body at a time, to a clean simulator of the given hierarchy, and the execution
// counts come back with the simulator's. It is the one "simulate this
// nest" call.
func Simulate(nest *ir.Nest, cfg cachesim.Config) (Stats, cachesim.Counts, error) {
	prog, err := Compile(nest, NewLayout(nest.Operands()))
	if err != nil {
		return Stats{}, cachesim.Counts{}, err
	}
	var st Stats
	counts, err := cachesim.Run(cfg, func(sim *cachesim.Simulator) { st = prog.RunStreams(sim) })
	return st, counts, err
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
