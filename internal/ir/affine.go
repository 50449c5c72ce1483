package ir

import (
	"fmt"
	"sort"
	"strings"

	"polyufc/internal/isl"
)

// AffExpr is an affine expression over loop induction variables:
// sum(Coef[iv] * iv) + Const. Coefficients for absent IVs are zero.
type AffExpr struct {
	Coef  map[string]int64
	Const int64
}

// AffConst returns the constant affine expression c.
func AffConst(c int64) AffExpr { return AffExpr{Const: c} }

// AffVar returns the affine expression consisting of one IV.
func AffVar(iv string) AffExpr { return AffExpr{Coef: map[string]int64{iv: 1}} }

// AffTerm returns c * iv.
func AffTerm(c int64, iv string) AffExpr { return AffExpr{Coef: map[string]int64{iv: c}} }

// Add returns e + f.
func (e AffExpr) Add(f AffExpr) AffExpr {
	g := AffExpr{Coef: map[string]int64{}, Const: e.Const + f.Const}
	for k, v := range e.Coef {
		g.Coef[k] += v
	}
	for k, v := range f.Coef {
		g.Coef[k] += v
	}
	for k, v := range g.Coef {
		if v == 0 {
			delete(g.Coef, k)
		}
	}
	return g
}

// AddConst returns e + c.
func (e AffExpr) AddConst(c int64) AffExpr { return e.Add(AffConst(c)) }

// Scale returns c * e.
func (e AffExpr) Scale(c int64) AffExpr {
	g := AffExpr{Coef: map[string]int64{}, Const: e.Const * c}
	if c != 0 {
		for k, v := range e.Coef {
			g.Coef[k] = v * c
		}
	}
	return g
}

// Eval evaluates e under the IV assignment env.
func (e AffExpr) Eval(env map[string]int64) int64 {
	v := e.Const
	for k, c := range e.Coef {
		v += c * env[k]
	}
	return v
}

// IVs returns the induction variables appearing in e, sorted.
func (e AffExpr) IVs() []string {
	out := make([]string, 0, len(e.Coef))
	for k := range e.Coef {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (e AffExpr) String() string {
	var parts []string
	for _, iv := range e.IVs() {
		c := e.Coef[iv]
		switch c {
		case 1:
			parts = append(parts, iv)
		case -1:
			parts = append(parts, "-"+iv)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, iv))
		}
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprint(e.Const))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
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

func (b Bound) String() string {
	if b.Div == 1 {
		return b.Expr.String()
	}
	return fmt.Sprintf("(%s) floordiv %d", b.Expr, b.Div)
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
		for iv, c := range e.Coef {
			idx := sp.VarIndex(iv)
			if idx < 0 {
				panic(fmt.Sprintf("ir: bound references unknown IV %q", iv))
			}
			le.VarCoef[idx] += c
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
