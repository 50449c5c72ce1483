package ir

import (
	"fmt"
	"slices"
	"strconv"

	"polyufc/internal/isl"
)

// AffExpr is an affine expression over loop induction variables:
// sum(c * iv) + Const over its terms. An AffExpr is an immutable value:
// every operation builds a new one, and values may share their terms, so a
// copy of a module can share every expression with the original. Its terms
// are kept in one canonical form, sorted by IV with no zero coefficient and
// nil for a constant expression, so equal expressions are DeepEqual.
type AffExpr struct {
	terms []Term
	Const int64
}

// Term is one non-zero coefficient of an affine expression: C * IV.
type Term struct {
	IV string
	C  int64
}

// AffConst returns the constant affine expression c.
func AffConst(c int64) AffExpr { return AffExpr{Const: c} }

// AffVar returns the affine expression consisting of one IV.
func AffVar(iv string) AffExpr { return AffTerm(1, iv) }

// AffTerm returns c * iv.
func AffTerm(c int64, iv string) AffExpr {
	if c == 0 {
		return AffExpr{}
	}
	return AffExpr{terms: []Term{{IV: iv, C: c}}}
}

// Add returns e + f. A constant operand shares the other one's terms.
func (e AffExpr) Add(f AffExpr) AffExpr {
	c := e.Const + f.Const
	switch {
	case f.terms == nil:
		return AffExpr{terms: e.terms, Const: c}
	case e.terms == nil:
		return AffExpr{terms: f.terms, Const: c}
	}
	ts := make([]Term, 0, len(e.terms)+len(f.terms))
	i, j := 0, 0
	for i < len(e.terms) && j < len(f.terms) {
		a, b := e.terms[i], f.terms[j]
		switch {
		case a.IV < b.IV:
			ts = append(ts, a)
			i++
		case a.IV > b.IV:
			ts = append(ts, b)
			j++
		default:
			if s := a.C + b.C; s != 0 {
				ts = append(ts, Term{IV: a.IV, C: s})
			}
			i++
			j++
		}
	}
	ts = append(ts, e.terms[i:]...)
	ts = append(ts, f.terms[j:]...)
	if len(ts) == 0 {
		ts = nil
	}
	return AffExpr{terms: ts, Const: c}
}

// AddConst returns e + c, sharing e's terms.
func (e AffExpr) AddConst(c int64) AffExpr { return AffExpr{terms: e.terms, Const: e.Const + c} }

// Scale returns c * e.
func (e AffExpr) Scale(c int64) AffExpr {
	switch {
	case c == 1:
		return e
	case c == 0 || e.terms == nil:
		return AffExpr{Const: e.Const * c}
	}
	ts := make([]Term, 0, len(e.terms))
	for _, t := range e.terms {
		if p := t.C * c; p != 0 { // zero only on overflow
			ts = append(ts, Term{IV: t.IV, C: p})
		}
	}
	if len(ts) == 0 {
		ts = nil
	}
	return AffExpr{terms: ts, Const: e.Const * c}
}

// IsConst reports whether e has no IV term.
func (e AffExpr) IsConst() bool { return e.terms == nil }

// Terms returns a copy of e's terms: its IVs with their non-zero
// coefficients, sorted by IV, and nil for a constant expression.
func (e AffExpr) Terms() []Term { return slices.Clone(e.terms) }

// SameTerms reports whether e and f have the same IV terms: they differ at
// most in their constants.
func (e AffExpr) SameTerms(f AffExpr) bool { return slices.Equal(e.terms, f.terms) }

// Coeff returns the coefficient of iv in e (zero when iv is absent).
func (e AffExpr) Coeff(iv string) int64 {
	for _, t := range e.terms {
		if t.IV == iv {
			return t.C
		}
	}
	return 0
}

// Eval evaluates e under the IV assignment env.
func (e AffExpr) Eval(env map[string]int64) int64 {
	v := e.Const
	for _, t := range e.terms {
		v += t.C * env[t.IV]
	}
	return v
}

func (e AffExpr) String() string {
	return string(e.appendTo(nil))
}

// appendTo appends e's text to b: its terms in IV order, then its
// constant unless it is zero and a term precedes it.
func (e AffExpr) appendTo(b []byte) []byte {
	for i, t := range e.terms {
		switch {
		case t.C < 0 && i == 0:
			b = append(b, '-')
		case t.C < 0:
			b = append(b, " - "...)
		case i > 0:
			b = append(b, " + "...)
		}
		if t.C != 1 && t.C != -1 {
			b = appendAbs(b, t.C)
			b = append(b, '*')
		}
		b = append(b, t.IV...)
	}
	switch {
	case e.terms == nil:
		b = strconv.AppendInt(b, e.Const, 10)
	case e.Const < 0:
		b = appendAbs(append(b, " - "...), e.Const)
	case e.Const > 0:
		b = appendAbs(append(b, " + "...), e.Const)
	}
	return b
}

// appendAbs appends |v| in decimal, math.MinInt64 included.
func appendAbs(b []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	return strconv.AppendUint(b, u, 10)
}

// Node is an element of an affine loop body: either a nested *Loop or a
// *Statement.
type Node interface{ affineNode() }

// Bound is one candidate loop bound: for lower bounds it denotes
// ceil(Expr/Div), for upper bounds floor(Expr/Div). Div is 1 for plain
// affine bounds; tiling introduces Div = tile size (MLIR's affine_map
// floordiv bounds).
type Bound struct {
	Expr AffExpr
	Div  int64
}

// BExpr wraps a plain affine expression as a Bound with divisor 1.
func BExpr(e AffExpr) Bound { return Bound{Expr: e, Div: 1} }

// BDiv builds the bound Expr/Div (floor for upper, ceil for lower bounds).
func BDiv(e AffExpr, div int64) Bound {
	if div <= 0 {
		panic("ir: bound divisor must be positive")
	}
	return Bound{Expr: e, Div: div}
}

func (b Bound) String() string { return string(b.appendTo(nil)) }

// appendTo appends b's text: its expression, or (expr) floordiv div.
func (b Bound) appendTo(out []byte) []byte {
	if b.Div == 1 {
		return b.Expr.appendTo(out)
	}
	out = b.Expr.appendTo(append(out, '('))
	out = append(out, ") floordiv "...)
	return strconv.AppendInt(out, b.Div, 10)
}

// Loop is an affine for loop with unit step; the lower bound is the max of
// Lo, the (inclusive) upper bound is the min of Hi.
type Loop struct {
	IV       string
	Lo, Hi   []Bound // Lo: max of (ceil); Hi: min of (floor, inclusive)
	Parallel bool
	Body     []Node
}

func (*Loop) affineNode() {}

// SimpleLoop builds a loop with single plain bounds [lo, hi] inclusive.
func SimpleLoop(iv string, lo, hi AffExpr, body ...Node) *Loop {
	return &Loop{IV: iv, Lo: []Bound{BExpr(lo)}, Hi: []Bound{BExpr(hi)}, Body: body}
}

// Access is one memory reference of a statement.
type Access struct {
	Array *Array
	Write bool
	Index []AffExpr // one affine expression per array dimension
}

// Statement is a polyhedral statement: the innermost computation executed
// at each point of its iteration domain.
type Statement struct {
	Name     string
	Accesses []Access
	// Flops is the number of arithmetic operations per statement instance
	// (the paper's unitary model: every arith op counts 1).
	Flops int64
}

func (*Statement) affineNode() {}

// CapNode places a polyufc.set_uncore_cap inside an affine body (used by
// the affine-granularity capping study).
type CapNode struct {
	Cap *SetUncoreCap
}

func (*CapNode) affineNode() {}

// Nest is a top-level affine loop nest; it is the affine-dialect Op.
type Nest struct {
	Label  string
	origin string
	Root   *Loop
}

// Dialect implements Op.
func (n *Nest) Dialect() Dialect { return DialectAffine }

// OpName implements Op.
func (n *Nest) OpName() string { return "affine.for" }

// Origin implements Op.
func (n *Nest) Origin() string { return n.origin }

// SetOrigin records the higher-level op this nest was lowered from.
func (n *Nest) SetOrigin(o string) { n.origin = o }

// Parallel reports whether the nest's outermost loop runs in parallel:
// such a nest spans every thread of the machine (every socket of a
// topology backend).
func (n *Nest) Parallel() bool { return n.Root != nil && n.Root.Parallel }

// Operands implements Op: the distinct arrays accessed in the nest.
func (n *Nest) Operands() []*Array {
	seen := map[*Array]bool{}
	var out []*Array
	n.WalkStatements(func(s *Statement, _ []*Loop) {
		for _, a := range s.Accesses {
			if !seen[a.Array] {
				seen[a.Array] = true
				out = append(out, a.Array)
			}
		}
	})
	return out
}

// WalkStatements visits every statement with its enclosing loop stack
// (outermost first).
func (n *Nest) WalkStatements(visit func(s *Statement, loops []*Loop)) {
	var rec func(l *Loop, stack []*Loop)
	rec = func(l *Loop, stack []*Loop) {
		stack = append(stack, l)
		for _, node := range l.Body {
			switch x := node.(type) {
			case *Loop:
				rec(x, stack)
			case *Statement:
				visit(x, stack)
			}
		}
	}
	if n.Root != nil {
		rec(n.Root, nil)
	}
}

// WalkLoops visits every loop in the nest, outermost first.
func (n *Nest) WalkLoops(visit func(l *Loop, depth int)) {
	var rec func(l *Loop, depth int)
	rec = func(l *Loop, depth int) {
		visit(l, depth)
		for _, node := range l.Body {
			if sub, ok := node.(*Loop); ok {
				rec(sub, depth+1)
			}
		}
	}
	if n.Root != nil {
		rec(n.Root, 0)
	}
}

// StatementInfo bundles a statement with its polyhedral context.
type StatementInfo struct {
	Stmt *Statement
	// Loops is the enclosing loop stack, outermost first.
	Loops []*Loop
	// Domain is the iteration domain over the loop IVs (outermost first).
	Domain isl.Set
	// Position is the 2d+1 schedule prefix: syntactic positions
	// interleaved with IV levels; used for lexicographic comparisons.
	Position []int
}

// IVNames returns the statement's loop IVs, outermost first.
func (si StatementInfo) IVNames() []string {
	out := make([]string, len(si.Loops))
	for i, l := range si.Loops {
		out[i] = l.IV
	}
	return out
}

// Statements extracts every statement of the nest with its iteration domain
// and schedule position.
func (n *Nest) Statements() []StatementInfo {
	var out []StatementInfo
	var rec func(l *Loop, stack []*Loop, pos []int)
	rec = func(l *Loop, stack []*Loop, pos []int) {
		stack = append(stack, l)
		childIdx := 0
		for _, node := range l.Body {
			switch x := node.(type) {
			case *Loop:
				rec(x, stack, append(append([]int(nil), pos...), childIdx))
				childIdx++
			case *Statement:
				si := StatementInfo{
					Stmt:     x,
					Loops:    append([]*Loop(nil), stack...),
					Position: append(append([]int(nil), pos...), childIdx),
				}
				si.Domain = domainOf(stack)
				out = append(out, si)
				childIdx++
			}
		}
	}
	if n.Root != nil {
		rec(n.Root, nil, nil)
	}
	return out
}

// domainOf builds the isl iteration domain for a loop stack.
func domainOf(stack []*Loop) isl.Set {
	ivs := make([]string, len(stack))
	for i, l := range stack {
		ivs[i] = l.IV
	}
	sp := isl.NewSetSpace(nil, ivs)
	b := isl.Universe(sp)
	toLin := func(e AffExpr) isl.LinExpr {
		le := sp.ConstExpr(e.Const)
		for _, t := range e.terms {
			idx := sp.VarIndex(t.IV)
			if idx < 0 {
				panic(fmt.Sprintf("ir: bound references unknown IV %q", t.IV))
			}
			le.VarCoef[idx] += t.C
		}
		return le
	}
	for i, l := range stack {
		v := sp.VarExpr(i)
		for _, lo := range l.Lo {
			// iv >= ceil(e/d)  <=>  d*iv >= e  (d > 0).
			b.AddGE(v.Scale(lo.Div).Sub(toLin(lo.Expr)))
		}
		for _, hi := range l.Hi {
			// iv <= floor(e/d)  <=>  d*iv <= e.
			b.AddGE(toLin(hi.Expr).Sub(v.Scale(hi.Div)))
		}
	}
	return isl.FromBasic(b)
}

// TripCount returns the total number of statement instances across the
// nest (the sum of all statement domain cardinalities).
func (n *Nest) TripCount() (int64, error) {
	var total int64
	for _, si := range n.Statements() {
		c, err := si.Domain.Count(1 << 24)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Flops returns the total arithmetic operation count of the nest
// (sum over statements of flops-per-instance times domain size).
func (n *Nest) Flops() (int64, error) {
	var total int64
	for _, si := range n.Statements() {
		c, err := si.Domain.Count(1 << 24)
		if err != nil {
			return 0, err
		}
		total += c * si.Stmt.Flops
	}
	return total, nil
}
