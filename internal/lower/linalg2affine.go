package lower

import (
	"fmt"

	"polyufc/internal/ir"
)

// LinalgToAffine lowers every linalg op in the module to an affine loop
// nest. Caps and affine ops pass through. Like TorchToLinalg it replaces
// m's op lists, so m must be a spine the caller owns.
func LinalgToAffine(m *ir.Module) error {
	for _, f := range m.Funcs {
		var out []ir.Op
		for i, op := range f.Ops {
			if op.Dialect() != ir.DialectLinalg {
				out = append(out, op)
				continue
			}
			nest, err := LowerLinalgOp(op, fmt.Sprintf("%s_%d", f.Name, i))
			if err != nil {
				return err
			}
			out = append(out, nest)
		}
		f.Ops = out
	}
	return nil
}

// LowerLinalgOp lowers a single linalg op to an affine nest.
func LowerLinalgOp(op ir.Op, label string) (*ir.Nest, error) {
	var nest *ir.Nest
	var err error
	switch x := op.(type) {
	case *ir.LinalgMatmul:
		nest = lowerMatmul(x)
	case *ir.LinalgBatchMatmul:
		nest = lowerBatchMatmul(x)
	case *ir.LinalgConv2D:
		nest = lowerConv2D(x)
	case *ir.LinalgElemUnary:
		nest = lowerElemwise(x.In, x.Out, nil, false, 1, "unary_"+x.Kind.String())
	case *ir.LinalgElemBinary:
		nest = lowerElemwise(x.A, x.Out, x.B, x.BroadcastB, 1, "binary_"+x.Kind.String())
	case *ir.LinalgRowReduce:
		nest = lowerRowReduce(x)
	case *ir.LinalgFill:
		nest = lowerFill(x)
	default:
		err = fmt.Errorf("lower: no affine lowering for %s", op.OpName())
	}
	if err != nil {
		return nil, err
	}
	nest.Label = label + "_" + op.OpName()
	origin := op.Origin()
	if origin == "" {
		origin = op.OpName()
	} else {
		origin = origin + "/" + op.OpName()
	}
	nest.SetOrigin(origin)
	return nest, nil
}

// loopOver builds a perfect loop nest over the given extents with the
// statement innermost; IVs are named iv0..ivN-1 (prefixed for uniqueness).
func loopOver(prefix string, extents []int64, stmt *ir.Statement) (*ir.Loop, []string) {
	ivs := make([]string, len(extents))
	for i := range extents {
		ivs[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	var root, cur *ir.Loop
	for i, n := range extents {
		l := ir.SimpleLoop(ivs[i], ir.AffConst(0), ir.AffConst(n-1))
		if cur == nil {
			root = l
		} else {
			cur.Body = append(cur.Body, l)
		}
		cur = l
	}
	cur.Body = append(cur.Body, stmt)
	return root, ivs
}

func vars(ivs []string) []ir.AffExpr {
	out := make([]ir.AffExpr, len(ivs))
	for i, iv := range ivs {
		out[i] = ir.AffVar(iv)
	}
	return out
}

func lowerMatmul(x *ir.LinalgMatmul) *ir.Nest {
	m, k := x.A.Dims[0], x.A.Dims[1]
	n := x.B.Dims[1]
	stmt := &ir.Statement{Name: "S_matmul", Flops: 2}
	root, ivs := loopOver("i", []int64{m, n, k}, stmt)
	i, j, kk := ir.AffVar(ivs[0]), ir.AffVar(ivs[1]), ir.AffVar(ivs[2])
	stmt.Accesses = []ir.Access{
		{Array: x.A, Index: []ir.AffExpr{i, kk}},
		{Array: x.B, Index: []ir.AffExpr{kk, j}},
		{Array: x.Out, Index: []ir.AffExpr{i, j}},
		{Array: x.Out, Write: true, Index: []ir.AffExpr{i, j}},
	}
	return &ir.Nest{Root: root}
}

func lowerBatchMatmul(x *ir.LinalgBatchMatmul) *ir.Nest {
	nb := len(x.A.Dims) - 2
	m, k := x.A.Dims[nb], x.A.Dims[nb+1]
	var n int64
	if x.TransB {
		n = x.B.Dims[nb]
	} else {
		n = x.B.Dims[nb+1]
	}
	extents := append(append([]int64(nil), x.A.Dims[:nb]...), m, n, k)
	stmt := &ir.Statement{Name: "S_bmm", Flops: 2}
	root, ivs := loopOver("i", extents, stmt)
	batch := vars(ivs[:nb])
	i, j, kk := ir.AffVar(ivs[nb]), ir.AffVar(ivs[nb+1]), ir.AffVar(ivs[nb+2])
	aIdx := append(append([]ir.AffExpr(nil), batch...), i, kk)
	var bIdx []ir.AffExpr
	if x.TransB {
		bIdx = append(append([]ir.AffExpr(nil), batch...), j, kk)
	} else {
		bIdx = append(append([]ir.AffExpr(nil), batch...), kk, j)
	}
	oIdx := append(append([]ir.AffExpr(nil), batch...), i, j)
	stmt.Accesses = []ir.Access{
		{Array: x.A, Index: aIdx},
		{Array: x.B, Index: bIdx},
		{Array: x.Out, Index: oIdx},
		{Array: x.Out, Write: true, Index: oIdx},
	}
	return &ir.Nest{Root: root}
}

func lowerConv2D(x *ir.LinalgConv2D) *ir.Nest {
	n, c := x.Input.Dims[0], x.Input.Dims[1]
	f, kh, kw := x.Filter.Dims[0], x.Filter.Dims[2], x.Filter.Dims[3]
	oh, ow := x.Out.Dims[2], x.Out.Dims[3]
	stmt := &ir.Statement{Name: "S_conv", Flops: 2}
	root, ivs := loopOver("c", []int64{n, f, oh, ow, c, kh, kw}, stmt)
	vN, vF, vOH, vOW := ir.AffVar(ivs[0]), ir.AffVar(ivs[1]), ir.AffVar(ivs[2]), ir.AffVar(ivs[3])
	vC, vKH, vKW := ir.AffVar(ivs[4]), ir.AffVar(ivs[5]), ir.AffVar(ivs[6])
	inH := vOH.Scale(x.StrideH).Add(vKH)
	inW := vOW.Scale(x.StrideW).Add(vKW)
	outIdx := []ir.AffExpr{vN, vF, vOH, vOW}
	stmt.Accesses = []ir.Access{
		{Array: x.Input, Index: []ir.AffExpr{vN, vC, inH, inW}},
		{Array: x.Filter, Index: []ir.AffExpr{vF, vC, vKH, vKW}},
		{Array: x.Out, Index: outIdx},
		{Array: x.Out, Write: true, Index: outIdx},
	}
	return &ir.Nest{Root: root}
}

// lowerElemwise covers unary (b == nil) and binary element-wise ops.
func lowerElemwise(a, out, b *ir.Array, broadcastB bool, flops int64, name string) *ir.Nest {
	stmt := &ir.Statement{Name: "S_" + name, Flops: flops}
	root, ivs := loopOver("e", a.Dims, stmt)
	idx := vars(ivs)
	accs := []ir.Access{{Array: a, Index: idx}}
	if b != nil {
		bIdx := idx
		if broadcastB {
			bIdx = idx[:len(idx)-1]
		}
		accs = append(accs, ir.Access{Array: b, Index: bIdx})
	}
	accs = append(accs, ir.Access{Array: out, Write: true, Index: idx})
	stmt.Accesses = accs
	return &ir.Nest{Root: root}
}

func lowerRowReduce(x *ir.LinalgRowReduce) *ir.Nest {
	stmt := &ir.Statement{Name: "S_reduce_" + x.Kind.String(), Flops: 1}
	root, ivs := loopOver("r", x.In.Dims, stmt)
	idx := vars(ivs)
	outIdx := idx[:len(idx)-1]
	stmt.Accesses = []ir.Access{
		{Array: x.In, Index: idx},
		{Array: x.Out, Index: outIdx},
		{Array: x.Out, Write: true, Index: outIdx},
	}
	return &ir.Nest{Root: root}
}

func lowerFill(x *ir.LinalgFill) *ir.Nest {
	stmt := &ir.Statement{Name: "S_fill", Flops: 0}
	root, ivs := loopOver("f", x.Out.Dims, stmt)
	stmt.Accesses = []ir.Access{{Array: x.Out, Write: true, Index: vars(ivs)}}
	return &ir.Nest{Root: root}
}
