package interp

import (
	"encoding/binary"
	"slices"
	"strings"

	"polyufc/internal/ir"
)

// DigestOf identifies a nest by what a simulation of it reads: everything
// NewLayout and Compile read of it. Two nests with equal digests lay out
// the same arrays at the same addresses and compile to the same program,
// so a run of either makes the same accesses in the same order and counts
// the same instances and flops. The digest is the encoding itself, not a
// hash of it, so equal digests mean equal encodings.
//
// It encodes the loop tree: each loop's IV, Parallel flag and Lo and Hi
// bounds, each with its divisor, then its body in order — a CapNode as a
// marker, a statement as its flops and its accesses in order, each as its
// array, write flag and index expressions. An array is its position in
// Operands, which is the order of first access; at its first access the
// position is followed by its element size and extents (NewLayout's
// input, and the strides Compile linearizes by). An expression is its
// constant and its non-zero coefficients, sorted by IV name. Array and
// statement names, which Compile reads only to word an error, are left
// out.
func DigestOf(nest *ir.Nest) string {
	d := digester{buf: make([]byte, 0, 512)}
	if nest.Root != nil {
		d.loop(nest.Root)
	}
	return string(d.buf)
}

// digester appends DigestOf's encoding to buf: integers as varints, every
// list and string prefixed by its length, every body node by its kind.
// arrays are the arrays seen so far, in order of first access.
type digester struct {
	buf    []byte
	arrays []*ir.Array
}

// Body node kinds.
const (
	kindLoop = iota
	kindStmt
	kindCap
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

// term is one coefficient of an expression.
type term struct {
	iv   string
	coef int64
}

func (d *digester) expr(e ir.AffExpr) {
	d.int(e.Const)
	var buf [8]term
	terms := buf[:0]
	for iv, c := range e.Coef {
		if c != 0 {
			terms = append(terms, term{iv, c})
		}
	}
	slices.SortFunc(terms, func(a, b term) int { return strings.Compare(a.iv, b.iv) })
	d.uint(len(terms))
	for _, t := range terms {
		d.str(t.iv)
		d.int(t.coef)
	}
}

func (d *digester) bounds(bs []ir.Bound) {
	d.uint(len(bs))
	for _, b := range bs {
		d.int(b.Div)
		d.expr(b.Expr)
	}
}

func (d *digester) loop(l *ir.Loop) {
	d.str(l.IV)
	d.flag(l.Parallel)
	d.bounds(l.Lo)
	d.bounds(l.Hi)
	d.uint(len(l.Body))
	for _, node := range l.Body {
		switch x := node.(type) {
		case *ir.Loop:
			d.uint(kindLoop)
			d.loop(x)
		case *ir.Statement:
			d.uint(kindStmt)
			d.stmt(x)
		case *ir.CapNode:
			d.uint(kindCap)
		}
	}
}

func (d *digester) stmt(s *ir.Statement) {
	d.int(s.Flops)
	d.uint(len(s.Accesses))
	for _, acc := range s.Accesses {
		d.array(acc.Array)
		d.flag(acc.Write)
		d.uint(len(acc.Index))
		for _, e := range acc.Index {
			d.expr(e)
		}
	}
}
