package isl

import (
	"fmt"
	"strings"
)

// ConKind distinguishes inequality (>= 0) from equality (= 0) constraints.
type ConKind int

// Constraint kinds.
const (
	GE ConKind = iota // expression >= 0
	EQ                // expression == 0
)

// con is an internal constraint with coefficient columns laid out as
// [params | in dims | out dims | existentials] plus a constant.
type con struct {
	kind ConKind
	coef []int64
	c    int64
}

func (k ConKind) String() string {
	if k == EQ {
		return "="
	}
	return ">="
}

// BasicSet is a conjunction of affine constraints over a space, possibly
// with existentially quantified dimensions (used to express integer
// division and modulo). When the space has In dimensions the BasicSet is
// interpreted as a basic relation (map).
type BasicSet struct {
	Sp     Space
	NExist int
	cons   []con
	// markedEmpty is set when simplification detects an unsatisfiable
	// constant constraint.
	markedEmpty bool
}

// Universe returns the unconstrained basic set over the given space.
func Universe(sp Space) BasicSet { return BasicSet{Sp: sp} }

// totalCols returns the number of coefficient columns including existentials.
func (b *BasicSet) totalCols() int { return b.Sp.NumCols() + b.NExist }

// Clone returns a deep copy of b.
func (b BasicSet) Clone() BasicSet {
	nb := b
	nb.cons = make([]con, len(b.cons))
	for i, c := range b.cons {
		nb.cons[i] = con{kind: c.kind, coef: append([]int64(nil), c.coef...), c: c.c}
	}
	return nb
}

// rawCoef converts a LinExpr into a full coefficient row for b.
func (b *BasicSet) rawCoef(e LinExpr) []int64 {
	np, nv := b.Sp.NumParams(), b.Sp.NumVars()
	if len(e.ParamCoef) != np || len(e.VarCoef) != nv {
		panic(fmt.Sprintf("isl: expression shape (%d,%d) does not match space (%d,%d)",
			len(e.ParamCoef), len(e.VarCoef), np, nv))
	}
	row := make([]int64, b.totalCols())
	copy(row, e.ParamCoef)
	copy(row[np:], e.VarCoef)
	return row
}

// AddGE adds the constraint e >= 0.
func (b *BasicSet) AddGE(e LinExpr) { b.addRaw(GE, b.rawCoef(e), e.Const) }

// AddEQ adds the constraint e == 0.
func (b *BasicSet) AddEQ(e LinExpr) { b.addRaw(EQ, b.rawCoef(e), e.Const) }

// AddEquals adds the constraint e == f.
func (b *BasicSet) AddEquals(e, f LinExpr) { b.AddEQ(e.Sub(f)) }

// AddRange adds lo <= var_i <= hi for constant bounds.
func (b *BasicSet) AddRange(i int, lo, hi int64) {
	v := b.Sp.VarExpr(i)
	b.AddGE(v.AddConst(-lo))      // v - lo >= 0
	b.AddGE(v.Neg().AddConst(hi)) // hi - v >= 0
}

func (b *BasicSet) addRaw(kind ConKind, coef []int64, c int64) {
	cc := con{kind: kind, coef: coef, c: c}
	normalizeCon(&cc)
	switch trivial(cc) {
	case trivTrue:
		return
	case trivFalse:
		b.markedEmpty = true
	}
	b.cons = append(b.cons, cc)
}

type trivKind int

const (
	trivNo trivKind = iota
	trivTrue
	trivFalse
)

func trivial(c con) trivKind {
	for _, v := range c.coef {
		if v != 0 {
			return trivNo
		}
	}
	if c.kind == EQ {
		if c.c == 0 {
			return trivTrue
		}
		return trivFalse
	}
	if c.c >= 0 {
		return trivTrue
	}
	return trivFalse
}

// normalizeCon divides a constraint by the gcd of its coefficients,
// tightening inequalities by floor division of the constant.
func normalizeCon(c *con) {
	var g int64
	for _, v := range c.coef {
		g = gcd64(g, v)
	}
	if g <= 1 {
		return
	}
	for i := range c.coef {
		c.coef[i] /= g
	}
	if c.kind == GE {
		c.c = floorDiv(c.c, g)
	} else {
		if c.c%g != 0 {
			// Equality with non-divisible constant is unsatisfiable; encode
			// as 0 == 1 which trivial() will flag.
			for i := range c.coef {
				c.coef[i] = 0
			}
			c.c = 1
			return
		}
		c.c /= g
	}
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// floorDiv returns floor(a/b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// ceilDiv returns ceil(a/b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// AddExists appends n existentially quantified columns to b and returns the
// column index of the first new existential (relative to the full column
// layout: params, vars, existentials).
func (b *BasicSet) AddExists(n int) int {
	base := b.totalCols()
	for i := range b.cons {
		b.cons[i].coef = append(b.cons[i].coef, make([]int64, n)...)
	}
	b.NExist += n
	return base
}

// AddRawGE adds a constraint given full-width columns (params, vars,
// existentials) and a constant. The row is copied.
func (b *BasicSet) AddRawGE(coef []int64, c int64) {
	b.mustWidth(coef)
	b.addRaw(GE, append([]int64(nil), coef...), c)
}

// AddRawEQ adds an equality constraint given full-width columns.
func (b *BasicSet) AddRawEQ(coef []int64, c int64) {
	b.mustWidth(coef)
	b.addRaw(EQ, append([]int64(nil), coef...), c)
}

func (b *BasicSet) mustWidth(coef []int64) {
	if len(coef) != b.totalCols() {
		panic(fmt.Sprintf("isl: constraint width %d does not match %d columns", len(coef), b.totalCols()))
	}
}

// Intersect returns the conjunction of b and o, which must share a space.
// Existentials of both operands are preserved (renumbered apart).
func (b BasicSet) Intersect(o BasicSet) BasicSet {
	if !b.Sp.Equal(o.Sp) {
		panic("isl: Intersect on different spaces")
	}
	r := b.Clone()
	r.AddExists(o.NExist)
	base := b.Sp.NumCols()
	for _, c := range o.cons {
		row := make([]int64, r.totalCols())
		copy(row, c.coef[:base])
		copy(row[base+b.NExist:], c.coef[base:])
		r.addRaw(c.kind, row, c.c)
	}
	r.markedEmpty = r.markedEmpty || o.markedEmpty
	return r
}

// InstantiateParams folds concrete parameter values into the constraint
// constants, returning a basic set over a parameter-free space. A constant
// that would leave int64 is ErrNotCountable.
func (b BasicSet) InstantiateParams(vals []int64) (BasicSet, error) {
	np := b.Sp.NumParams()
	if len(vals) != np {
		panic("isl: wrong number of parameter values")
	}
	nsp := Space{In: b.Sp.In, Out: b.Sp.Out}
	r := BasicSet{Sp: nsp, NExist: b.NExist, markedEmpty: b.markedEmpty}
	for _, c := range b.cons {
		row := append([]int64(nil), c.coef[np:]...)
		k := c.c
		for i := 0; i < np; i++ {
			var ok bool
			if k, ok = mulAdd(k, c.coef[i], vals[i]); !ok {
				return BasicSet{}, ErrNotCountable
			}
		}
		r.addRaw(c.kind, row, k)
	}
	return r, nil
}

func negRow(row []int64) []int64 {
	out := make([]int64, len(row))
	for i, v := range row {
		out[i] = -v
	}
	return out
}

// fromSys builds the basic set over sp whose constraints are the first
// sp.NumCols()+nexist columns of the system's rows.
func fromSys(sp Space, nexist int, s *sys) BasicSet {
	return BasicSet{Sp: sp, NExist: nexist, markedEmpty: s.empty, cons: s.cons(sp.NumCols() + nexist)}
}

// EliminateExists projects away all existential dimensions with
// Fourier-Motzkin, reporting whether the result is integrally exact.
// Equalities with a unit coefficient on the eliminated column are
// substituted, which is exact; a coefficient that overflows an int64 drops
// its row and makes the projection inexact.
func (b BasicSet) EliminateExists() (BasicSet, bool) {
	if b.NExist == 0 {
		return b, true
	}
	f := fmPool.Get().(*fmScratch)
	defer fmPool.Put(f)
	f.cur.load(b.totalCols(), b.cons)
	f.cur.empty = f.cur.empty || b.markedEmpty
	exact := true
	for col := b.totalCols() - 1; col >= b.Sp.NumCols(); col-- {
		exact = f.project(col) && exact
	}
	return fromSys(b.Sp, 0, &f.cur), exact
}

// ProjectOutVar projects away variable i (0-based across in+out dims),
// returning a basic set over the reduced space and whether the projection
// is integrally exact.
func (b BasicSet) ProjectOutVar(i int) (BasicSet, bool) {
	col := b.Sp.NumParams() + i
	f := fmPool.Get().(*fmScratch)
	defer fmPool.Put(f)
	f.cur.load(b.totalCols(), b.cons)
	f.cur.empty = f.cur.empty || b.markedEmpty
	exact := f.project(col)
	out := fromSys(b.Sp, b.NExist, &f.cur)
	out.Sp = b.Sp.withoutVar(i)
	for r := range out.cons {
		coef := out.cons[r].coef
		out.cons[r].coef = append(coef[:col], coef[col+1:]...)
	}
	return out, exact
}

// QuantifyVar turns variable i into an existential dimension: the result is
// the exact integer projection of b along i over the reduced space,
// whatever the coefficients on i. It is the form to fall back on when
// ProjectOutVar reports an inexact elimination; counting it enumerates.
func (b BasicSet) QuantifyVar(i int) BasicSet {
	col := b.Sp.NumParams() + i
	out := BasicSet{Sp: b.Sp.withoutVar(i), NExist: b.NExist + 1, markedEmpty: b.markedEmpty, cons: make([]con, len(b.cons))}
	for r, c := range b.cons {
		coef := make([]int64, 0, len(c.coef))
		coef = append(append(append(coef, c.coef[:col]...), c.coef[col+1:]...), c.coef[col])
		out.cons[r] = con{kind: c.kind, coef: coef, c: c.c}
	}
	return out
}

// IsEmptyRational reports whether b is empty over the rationals. A true
// result implies integer emptiness; a false result is inconclusive for the
// integers (the caller may fall back to enumeration). Constraints over the
// parameters alone are not decided.
func (b BasicSet) IsEmptyRational() bool { return b.emptyRationalWith(nil) }

// IsEmptyRationalWith is IsEmptyRational of b ∧ o without building the
// intersection, for callers that test one set against many small ones. o
// must be over b's space and free of existentials.
func (b BasicSet) IsEmptyRationalWith(o BasicSet) bool {
	if !b.Sp.Equal(o.Sp) || o.NExist != 0 {
		panic("isl: IsEmptyRationalWith needs an existential-free set over the same space")
	}
	return o.markedEmpty || b.emptyRationalWith(o.cons)
}

// emptyRationalWith tests b's constraints together with extra ones over
// b's leading columns.
func (b BasicSet) emptyRationalWith(extra []con) bool {
	if b.markedEmpty {
		return true
	}
	f := fmPool.Get().(*fmScratch)
	defer fmPool.Put(f)
	f.cur.load(b.totalCols(), b.cons)
	for _, c := range extra {
		f.cur.push(c)
	}
	return f.infeasible(b.Sp.NumParams())
}

// EvalPoint reports whether the given parameter/variable assignment
// satisfies b, searching existential values if necessary.
func (b BasicSet) EvalPoint(params, vars []int64) bool {
	if b.markedEmpty {
		return false
	}
	np, nv := b.Sp.NumParams(), b.Sp.NumVars()
	if len(params) != np || len(vars) != nv {
		panic("isl: EvalPoint arity mismatch")
	}
	full := make([]int64, b.totalCols())
	copy(full, params)
	copy(full[np:], vars)
	return b.searchExists(b.buildBoundSystems(), full, np+nv)
}

// searchExists checks satisfiability with columns [0,from) fixed, searching
// assignments for the remaining (existential) columns via bound propagation.
func (b BasicSet) searchExists(sys *boundSystems, full []int64, from int) bool {
	if from == len(full) {
		for _, c := range b.cons {
			v := c.c
			for i, co := range c.coef {
				v += co * full[i]
			}
			if c.kind == EQ && v != 0 {
				return false
			}
			if c.kind == GE && v < 0 {
				return false
			}
		}
		return true
	}
	lo, hi, ok := sys.colBounds(full, from)
	if !ok {
		return false
	}
	const existSearchCap = 1 << 16
	if hi-lo+1 > existSearchCap || hi-lo < 0 {
		// Unbounded or huge existential range: in the PolyUFC class
		// existentials are tightly bounded (division/modulo witnesses), so
		// treat as unsatisfiable rather than search astronomically.
		return false
	}
	for v := lo; v <= hi; v++ {
		full[from] = v
		if b.searchExists(sys, full, from+1) {
			full[from] = 0
			return true
		}
	}
	full[from] = 0
	return false
}

// Constraints returns a copy of b's constraints as (kind, coefficients,
// constant) triples with full column layout.
func (b BasicSet) Constraints() []ConstraintView {
	out := make([]ConstraintView, len(b.cons))
	for i, c := range b.cons {
		out[i] = ConstraintView{Kind: c.kind, Coef: append([]int64(nil), c.coef...), Const: c.c}
	}
	return out
}

// ConstraintView is an exported read-only view of one constraint.
type ConstraintView struct {
	Kind  ConKind
	Coef  []int64
	Const int64
}

func (b BasicSet) String() string {
	var sb strings.Builder
	sb.WriteString(b.Sp.String())
	sb.WriteString(" : ")
	if b.markedEmpty {
		sb.WriteString("false")
		return sb.String()
	}
	if len(b.cons) == 0 {
		sb.WriteString("true")
		return sb.String()
	}
	names := make([]string, 0, b.totalCols())
	names = append(names, b.Sp.Params...)
	names = append(names, b.Sp.In...)
	names = append(names, b.Sp.Out...)
	for i := 0; i < b.NExist; i++ {
		names = append(names, fmt.Sprintf("e%d", i))
	}
	var parts []string
	for _, c := range b.cons {
		var terms []string
		for i, co := range c.coef {
			switch co {
			case 0:
			case 1:
				terms = append(terms, names[i])
			case -1:
				terms = append(terms, "-"+names[i])
			default:
				terms = append(terms, fmt.Sprintf("%d*%s", co, names[i]))
			}
		}
		if c.c != 0 || len(terms) == 0 {
			terms = append(terms, fmt.Sprintf("%d", c.c))
		}
		parts = append(parts, strings.Join(terms, " + ")+" "+c.kind.String()+" 0")
	}
	sb.WriteString(strings.Join(parts, " and "))
	return sb.String()
}
