package ir

import (
	"fmt"
	"slices"
)

// Clone returns a deep copy of the module sharing no mutable state with
// the original: ops, nests, loops, statements, arrays and every bound and
// index slice are copied, and array identity is preserved (two ops
// referencing the same *Array reference the same clone). Affine
// expressions are immutable values, so the copy shares them, and so is a
// sealed module's content hash, which the copy keeps: a clone is
// reflect.DeepEqual to its original. The compiler copies only a module's
// spine (CopySpine); tests take a deep "before" snapshot with Clone.
func (m *Module) Clone() *Module {
	if m == nil {
		return nil
	}
	c := &cloner{arrays: map[*Array]*Array{}}
	out := &Module{Name: m.Name, hash: m.hash}
	for _, f := range m.Funcs {
		out.Funcs = append(out.Funcs, c.fn(f))
	}
	return out
}

// Clone returns a deep copy of the nest (see Module.Clone).
func (n *Nest) Clone() *Nest {
	return (&cloner{arrays: map[*Array]*Array{}}).nest(n)
}

// cloner tracks array identity across one clone operation.
type cloner struct {
	arrays map[*Array]*Array
}

func (c *cloner) fn(f *Func) *Func {
	out := &Func{Name: f.Name}
	for _, op := range f.Ops {
		out.Ops = append(out.Ops, c.op(op))
	}
	return out
}

func (c *cloner) array(a *Array) *Array {
	if a == nil {
		return nil
	}
	if cp, ok := c.arrays[a]; ok {
		return cp
	}
	cp := &Array{Name: a.Name, ElemSize: a.ElemSize}
	if a.Dims != nil {
		cp.Dims = append([]int64(nil), a.Dims...)
	}
	c.arrays[a] = cp
	return cp
}

func (c *cloner) arrays2(as []*Array) []*Array {
	if as == nil {
		return nil
	}
	out := make([]*Array, len(as))
	for i, a := range as {
		out[i] = c.array(a)
	}
	return out
}

func (c *cloner) torchBase(b torchBase) torchBase {
	return torchBase{name: b.name, origin: b.origin, args: c.arrays2(b.args)}
}

func (c *cloner) linalgBase(b linalgBase) linalgBase {
	return linalgBase{name: b.name, origin: b.origin, args: c.arrays2(b.args)}
}

func (c *cloner) op(op Op) Op {
	switch x := op.(type) {
	case *SetUncoreCap:
		cp := *x
		return &cp

	case *Nest:
		return c.nest(x)

	case *TorchMatMul:
		return &TorchMatMul{torchBase: c.torchBase(x.torchBase),
			A: c.array(x.A), B: c.array(x.B), Out: c.array(x.Out)}
	case *TorchConv2D:
		return &TorchConv2D{torchBase: c.torchBase(x.torchBase),
			Input: c.array(x.Input), Filter: c.array(x.Filter), Out: c.array(x.Out),
			StrideH: x.StrideH, StrideW: x.StrideW}
	case *TorchSDPA:
		return &TorchSDPA{torchBase: c.torchBase(x.torchBase),
			Q: c.array(x.Q), K: c.array(x.K), V: c.array(x.V), Out: c.array(x.Out)}

	case *LinalgMatmul:
		return &LinalgMatmul{linalgBase: c.linalgBase(x.linalgBase),
			A: c.array(x.A), B: c.array(x.B), Out: c.array(x.Out)}
	case *LinalgBatchMatmul:
		return &LinalgBatchMatmul{linalgBase: c.linalgBase(x.linalgBase),
			A: c.array(x.A), B: c.array(x.B), Out: c.array(x.Out), TransB: x.TransB}
	case *LinalgConv2D:
		return &LinalgConv2D{linalgBase: c.linalgBase(x.linalgBase),
			Input: c.array(x.Input), Filter: c.array(x.Filter), Out: c.array(x.Out),
			StrideH: x.StrideH, StrideW: x.StrideW}
	case *LinalgElemUnary:
		return &LinalgElemUnary{linalgBase: c.linalgBase(x.linalgBase),
			Kind: x.Kind, Alpha: x.Alpha, In: c.array(x.In), Out: c.array(x.Out)}
	case *LinalgElemBinary:
		return &LinalgElemBinary{linalgBase: c.linalgBase(x.linalgBase),
			Kind: x.Kind, A: c.array(x.A), B: c.array(x.B), Out: c.array(x.Out),
			BroadcastB: x.BroadcastB}
	case *LinalgRowReduce:
		return &LinalgRowReduce{linalgBase: c.linalgBase(x.linalgBase),
			Kind: x.Kind, In: c.array(x.In), Out: c.array(x.Out)}
	case *LinalgFill:
		return &LinalgFill{linalgBase: c.linalgBase(x.linalgBase),
			Out: c.array(x.Out), Value: x.Value}
	}
	panic(fmt.Sprintf("ir: Clone does not know op %T", op))
}

func (c *cloner) nest(n *Nest) *Nest {
	if n == nil {
		return nil
	}
	return &Nest{Label: n.Label, origin: n.origin, Root: c.loop(n.Root)}
}

func (c *cloner) loop(l *Loop) *Loop {
	if l == nil {
		return nil
	}
	out := &Loop{IV: l.IV, Parallel: l.Parallel,
		Lo: slices.Clone(l.Lo), Hi: slices.Clone(l.Hi)}
	if l.Body != nil {
		out.Body = make([]Node, len(l.Body))
		for i, nd := range l.Body {
			out.Body[i] = c.node(nd)
		}
	}
	return out
}

func (c *cloner) node(nd Node) Node {
	switch x := nd.(type) {
	case *Loop:
		return c.loop(x)
	case *Statement:
		return c.stmt(x)
	case *CapNode:
		cap := *x.Cap
		return &CapNode{Cap: &cap}
	}
	panic(fmt.Sprintf("ir: Clone does not know node %T", nd))
}

func (c *cloner) stmt(s *Statement) *Statement {
	out := &Statement{Name: s.Name, Flops: s.Flops}
	if s.Accesses != nil {
		out.Accesses = make([]Access, len(s.Accesses))
		for i, a := range s.Accesses {
			out.Accesses[i] = Access{Array: c.array(a.Array), Write: a.Write,
				Index: slices.Clone(a.Index)}
		}
	}
	return out
}
