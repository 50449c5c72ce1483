package interp

import (
	"cmp"
	"encoding/binary"
	"slices"

	"polyufc/internal/ir"
)

// DigestOf identifies a nest by what a simulation of it reads: everything
// NewLayout and Compile read of it, and the nest's Parallel flag, which a
// profile carries. Two nests with equal digests lay out the same arrays at
// the same addresses and compile to programs that make the same accesses
// in the same order and count the same instances and flops. The digest is
// the encoding itself, not a hash of it, so equal digests mean equal
// encodings.
//
// It encodes the trace, not how the loops are spelled:
//   - A loop whose bounds are constant once the values of enclosing folded
//     loops are substituted, and which runs exactly once, is folded: its
//     body stands in its place and its IV in every expression below it is
//     replaced by its value. A Pluto tile loop over a tile as large as the
//     domain is one. A loop that runs zero times is never dropped: the
//     accesses in its body still fix the order of Operands, so the layout.
//   - Every other loop is its Lo and Hi bounds, then its body. The
//     constant entries of a bound list are collapsed into the one value
//     they bound the loop by; each other entry is its divisor and
//     expression.
//   - An IV is named by the depth of its loop among the loops not folded,
//     so loop IV names are left out; a loop's Parallel flag, which Compile
//     does not read, is too. An expression is its constant and its terms
//     by depth, and an IV no loop in scope binds (Compile rejects the nest)
//     by name.
//   - A statement is its flops and its accesses in order, each as its
//     array, write flag and index expressions; a CapNode is a marker. An
//     array is its position in Operands, which is the order of first
//     access; at its first access the position is followed by its element
//     size and extents (NewLayout's input, and the strides Compile
//     linearizes by). Array and statement names, which Compile reads only
//     to word an error, are left out.
func DigestOf(nest *ir.Nest) string {
	d := digester{buf: make([]byte, 0, 512)}
	d.flag(nest.Parallel())
	if nest.Root != nil {
		d.node(nest.Root)
	}
	d.uint(kindEnd)
	return string(d.buf)
}

// digester appends DigestOf's encoding to buf: integers as varints, every
// string prefixed by its length, every body node by its kind and every body
// closed by kindEnd. arrays are the arrays seen so far, in order of first
// access; scope the loops enclosing the node being encoded, outermost
// first, and depth how many of them are not folded.
type digester struct {
	buf    []byte
	arrays []*ir.Array
	scope  []binding
	depth  int
	terms  []dterm // scratch for subst
}

// binding is a loop in scope: a folded loop's IV and value, or another
// loop's IV and depth.
type binding struct {
	iv     string
	folded bool
	n      int64 // the value when folded, else the depth
}

// dterm is one term of a substituted expression: a coefficient on the IV
// at a depth, or on an IV that no loop in scope binds (depth -1).
type dterm struct {
	depth int
	iv    string
	c     int64
}

// Body node kinds, and the marker that closes a body.
const (
	kindEnd = iota
	kindLoop
	kindStmt
	kindCap
)

// Identities of the max and min a loop's bounds are combined by: the
// values run.bounds starts from.
const (
	noLower = int64(-1 << 62)
	noUpper = int64(1 << 62)
)

func (d *digester) int(v int64) { d.buf = binary.AppendVarint(d.buf, v) }
func (d *digester) uint(v int)  { d.buf = binary.AppendUvarint(d.buf, uint64(v)) }

func (d *digester) flag(b bool) {
	if b {
		d.uint(1)
	} else {
		d.uint(0)
	}
}

func (d *digester) str(s string) {
	d.uint(len(s))
	d.buf = append(d.buf, s...)
}

func (d *digester) array(a *ir.Array) {
	for i, seen := range d.arrays {
		if seen == a {
			d.uint(i)
			return
		}
	}
	d.uint(len(d.arrays))
	d.arrays = append(d.arrays, a)
	d.int(a.ElemSize)
	d.uint(len(a.Dims))
	for _, n := range a.Dims {
		d.int(n)
	}
}

// subst substitutes the values of folded loops into e. It returns the
// constant and leaves the remaining terms in d.terms, sorted by depth.
func (d *digester) subst(e ir.AffExpr) int64 {
	c := e.Const
	d.terms = d.terms[:0]
	for _, t := range e.Terms() {
		b, ok := d.resolve(t.IV)
		switch {
		case !ok:
			d.terms = append(d.terms, dterm{depth: -1, iv: t.IV, c: t.C})
		case b.folded:
			c += t.C * b.n
		default:
			d.terms = append(d.terms, dterm{depth: int(b.n), c: t.C})
		}
	}
	slices.SortFunc(d.terms, func(a, b dterm) int {
		return cmp.Or(cmp.Compare(a.depth, b.depth), cmp.Compare(a.iv, b.iv))
	})
	return c
}

// resolve finds the innermost loop in scope with the given IV.
func (d *digester) resolve(iv string) (binding, bool) {
	for i := len(d.scope) - 1; i >= 0; i-- {
		if d.scope[i].iv == iv {
			return d.scope[i], true
		}
	}
	return binding{}, false
}

// expr encodes a substituted expression: its constant and d.terms.
func (d *digester) expr(c int64) {
	d.int(c)
	d.uint(len(d.terms))
	for _, t := range d.terms {
		d.int(int64(t.depth))
		if t.depth < 0 {
			d.str(t.iv)
		}
		d.int(t.c)
	}
}

// constBound combines the entries of a bound list that are constant once
// substituted, as run.bounds does: the max of the lower bounds' ceilings,
// or the min of the upper bounds' floors. It also returns how many
// entries are not constant.
func (d *digester) constBound(bs []ir.Bound, upper bool) (v int64, rest int) {
	v = noLower
	if upper {
		v = noUpper
	}
	for _, b := range bs {
		c := d.subst(b.Expr)
		switch {
		case len(d.terms) > 0:
			rest++
		case upper:
			v = min(v, floorDiv(c, b.Div))
		default:
			v = max(v, ceilDiv(c, b.Div))
		}
	}
	return v, rest
}

// bounds encodes a bound list: its combined constant entries, then each
// other entry as its divisor and expression.
func (d *digester) bounds(bs []ir.Bound, v int64, rest int) {
	d.int(v)
	d.uint(rest)
	for _, b := range bs {
		if c := d.subst(b.Expr); len(d.terms) > 0 {
			d.int(b.Div)
			d.expr(c)
		}
	}
}

func (d *digester) node(node ir.Node) {
	switch x := node.(type) {
	case *ir.Loop:
		d.loop(x)
	case *ir.Statement:
		d.uint(kindStmt)
		d.stmt(x)
	case *ir.CapNode:
		d.uint(kindCap)
	}
}

func (d *digester) loop(l *ir.Loop) {
	lo, loRest := d.constBound(l.Lo, false)
	hi, hiRest := d.constBound(l.Hi, true)
	if loRest == 0 && hiRest == 0 && lo == hi {
		d.scope = append(d.scope, binding{iv: l.IV, folded: true, n: lo})
		for _, node := range l.Body {
			d.node(node)
		}
		d.scope = d.scope[:len(d.scope)-1]
		return
	}
	d.uint(kindLoop)
	d.bounds(l.Lo, lo, loRest)
	d.bounds(l.Hi, hi, hiRest)
	d.scope = append(d.scope, binding{iv: l.IV, n: int64(d.depth)})
	d.depth++
	for _, node := range l.Body {
		d.node(node)
	}
	d.uint(kindEnd)
	d.depth--
	d.scope = d.scope[:len(d.scope)-1]
}

func (d *digester) stmt(s *ir.Statement) {
	d.int(s.Flops)
	d.uint(len(s.Accesses))
	for _, acc := range s.Accesses {
		d.array(acc.Array)
		d.flag(acc.Write)
		d.uint(len(acc.Index))
		for _, e := range acc.Index {
			d.expr(d.subst(e))
		}
	}
}
