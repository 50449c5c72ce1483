// Package ir defines a small multi-dialect intermediate representation
// mirroring the MLIR levels the PolyUFC flow operates on: a high-level
// torch-like dialect (whole ML operators), a linalg-like dialect
// (structured operations), and an affine dialect (loop nests over affine
// accesses). Lowering between the levels lives in package lower; the
// polyufc.set_uncore_cap operation can be inserted at any level.
package ir

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
)

// Dialect identifies the abstraction level of an operation or function.
type Dialect int

// Dialect levels, from highest to lowest.
const (
	DialectTorch Dialect = iota
	DialectLinalg
	DialectAffine
)

func (d Dialect) String() string {
	switch d {
	case DialectTorch:
		return "torch"
	case DialectLinalg:
		return "linalg"
	case DialectAffine:
		return "affine"
	}
	return fmt.Sprintf("dialect(%d)", int(d))
}

// ParseDialect maps a request or flag string to a Dialect; the empty
// string is linalg, the paper's default cap-insertion level.
func ParseDialect(s string) (Dialect, bool) {
	switch s {
	case "torch":
		return DialectTorch, true
	case "linalg", "":
		return DialectLinalg, true
	case "affine":
		return DialectAffine, true
	}
	return DialectLinalg, false
}

// Op is any operation in a function body. Torch ops, linalg ops, affine
// loop nests and polyufc cap ops all implement it.
type Op interface {
	// Dialect reports the op's abstraction level.
	Dialect() Dialect
	// OpName returns the dialect-qualified operation name, e.g.
	// "linalg.matmul".
	OpName() string
	// Operands returns the arrays the op reads or writes (reads first).
	Operands() []*Array
	// Origin returns the name of the higher-level op this op was lowered
	// from, or "" if it is original.
	Origin() string
}

// Array is a tensor/memref: a named, row-major array of fixed element size.
type Array struct {
	Name     string
	ElemSize int64   // bytes per element
	Dims     []int64 // extents, outermost first
}

// NewArray constructs an array; elemSize is in bytes.
func NewArray(name string, elemSize int64, dims ...int64) *Array {
	return &Array{Name: name, ElemSize: elemSize, Dims: append([]int64(nil), dims...)}
}

// NumElems returns the total number of elements.
func (a *Array) NumElems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// SizeBytes returns the array's total size in bytes.
func (a *Array) SizeBytes() int64 { return a.NumElems() * a.ElemSize }

// Strides returns row-major element strides for each dimension.
func (a *Array) Strides() []int64 {
	s := make([]int64, len(a.Dims))
	acc := int64(1)
	for i := len(a.Dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= a.Dims[i]
	}
	return s
}

func (a *Array) String() string { return string(a.appendTo(nil)) }

// appendTo appends a's text: name: memref<d1xd2x...xfBITS>.
func (a *Array) appendTo(b []byte) []byte {
	b = append(append(b, a.Name...), ": memref<"...)
	for i, d := range a.Dims {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, d, 10)
	}
	b = strconv.AppendInt(append(b, "xf"...), a.ElemSize*8, 10)
	return append(b, '>')
}

// Func is a function body: an ordered list of operations at one dialect
// level (mixed levels are permitted mid-lowering).
type Func struct {
	Name string
	Ops  []Op
}

// Module is a compilation unit.
//
// Nothing below a nest header is written once it is built: loops,
// statements, accesses, arrays and expressions, and the torch, linalg and
// cap ops, are shared freely between modules. A pass writes only a
// module's spine — its Funcs, their op lists and its Nest headers — and
// only a spine it owns: one it built or took with CopySpine. A module
// shared after it is built (a workloads kernel) is sealed first, and
// nobody writes a sealed module.
type Module struct {
	Name  string
	Funcs []*Func
	// hash is the content hash Seal stored; nil on a module never sealed.
	hash *[sha256.Size]byte
}

// NewModule returns a module with a single empty function of the same name.
func NewModule(name string) (*Module, *Func) {
	f := &Func{Name: name}
	return &Module{Name: name, Funcs: []*Func{f}}, f
}

// CopySpine returns a module the caller owns over m's shared bodies: a new
// Module, new Funcs, new op lists and a new header for every Nest, while
// each Nest's loops and every other op stay m's. It costs O(ops). The copy
// is not sealed: it is made to be written.
func (m *Module) CopySpine() *Module {
	out := &Module{Name: m.Name, Funcs: make([]*Func, len(m.Funcs))}
	for i, f := range m.Funcs {
		ops := slices.Clone(f.Ops)
		for j, op := range ops {
			if n, ok := op.(*Nest); ok {
				hdr := *n
				ops[j] = &hdr
			}
		}
		out.Funcs[i] = &Func{Name: f.Name, Ops: ops}
	}
	return out
}

// Seal stores m's content hash on m. Call it once m is built and before
// it is shared: a sealed module is never written, so the stored hash stays
// its content's and ContentHash reads it without a lock.
func (m *Module) Seal() {
	sum := m.hashText()
	m.hash = &sum
}

// ContentHash returns the sha256 of m's printed text: the hash Seal stored,
// or, on a module never sealed, a fresh hash of its text.
func (m *Module) ContentHash() [sha256.Size]byte {
	if m.hash != nil {
		return *m.hash
	}
	return m.hashText()
}

func (m *Module) hashText() [sha256.Size]byte {
	h := sha256.New()
	m.Fprint(h) // a hash does not fail
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Arrays returns the distinct arrays referenced by the function, in first-
// use order.
func (f *Func) Arrays() []*Array {
	seen := map[*Array]bool{}
	var out []*Array
	for _, op := range f.Ops {
		for _, a := range op.Operands() {
			if a != nil && !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// SetUncoreCap is the polyufc.set_uncore_cap operation: it requests that
// the uncore frequency be capped at GHz before the following op executes.
type SetUncoreCap struct {
	GHz float64
	// Level records the dialect level the cap was inserted at (caps are
	// dialect-agnostic runtime calls; Level drives the granularity study).
	Level Dialect
	// From names the op the cap was derived for (diagnostics).
	From string
}

// Dialect implements Op; caps report the level they were inserted at.
func (c *SetUncoreCap) Dialect() Dialect { return c.Level }

// OpName implements Op.
func (c *SetUncoreCap) OpName() string { return "polyufc.set_uncore_cap" }

// Operands implements Op; caps touch no arrays.
func (c *SetUncoreCap) Operands() []*Array { return nil }

// Origin implements Op.
func (c *SetUncoreCap) Origin() string { return c.From }

func (c *SetUncoreCap) String() string {
	return fmt.Sprintf("polyufc.set_uncore_cap(%.1f GHz)", c.GHz)
}
