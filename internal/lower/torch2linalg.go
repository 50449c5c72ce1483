// Package lower implements the dialect lowerings of the PolyUFC flow:
// torch -> linalg (operator decomposition, the role torch-mlir plays in the
// paper) and linalg -> affine (structured ops to affine loop nests, the
// role of the MLIR linalg-to-affine-loops conversion).
package lower

import (
	"fmt"
	"math"

	"polyufc/internal/ir"
)

// TorchToLinalg lowers every torch op in the module to linalg ops,
// recording provenance in each op's Origin. Non-torch ops pass through.
// It replaces m's op lists, so m must be a spine the caller owns (see
// ir.Module); the ops it passes through are shared, not copied.
func TorchToLinalg(m *ir.Module) error {
	for _, f := range m.Funcs {
		var out []ir.Op
		for _, op := range f.Ops {
			lowered, err := lowerTorchOp(op)
			if err != nil {
				return err
			}
			out = append(out, lowered...)
		}
		f.Ops = out
	}
	return nil
}

func lowerTorchOp(op ir.Op) ([]ir.Op, error) {
	switch x := op.(type) {
	case *ir.TorchMatMul:
		l := ir.NewLinalgMatmul(x.A, x.B, x.Out)
		l.SetOrigin(x.OpName())
		return []ir.Op{l}, nil
	case *ir.TorchConv2D:
		l := ir.NewLinalgConv2D(x.Input, x.Filter, x.Out, x.StrideH, x.StrideW)
		l.SetOrigin(x.OpName())
		return []ir.Op{l}, nil
	case *ir.TorchSDPA:
		return lowerSDPA(x)
	case *ir.SetUncoreCap:
		return []ir.Op{op}, nil
	default:
		if op.Dialect() == ir.DialectTorch {
			return nil, fmt.Errorf("lower: no lowering for %s", op.OpName())
		}
		return []ir.Op{op}, nil
	}
}

// lowerSoftmax decomposes softmax along the last dimension into the
// numerically stable max/sub/exp/sum/div sequence torch-mlir emits.
func lowerSoftmax(in, out *ir.Array, origin string) []ir.Op {
	redDims := in.Dims[:len(in.Dims)-1]
	rowMax := ir.NewArray(in.Name+"_rmax", in.ElemSize, redDims...)
	shifted := ir.NewArray(in.Name+"_shift", in.ElemSize, in.Dims...)
	expd := ir.NewArray(in.Name+"_exp", in.ElemSize, in.Dims...)
	rowSum := ir.NewArray(in.Name+"_rsum", in.ElemSize, redDims...)
	ops := []ir.Op{
		ir.NewLinalgRowReduce(ir.ReduceMax, in, rowMax),
		ir.NewLinalgElemBinary(ir.BinSub, in, rowMax, shifted, true),
		ir.NewLinalgElemUnary(ir.UnaryExp, shifted, expd, 0),
		ir.NewLinalgRowReduce(ir.ReduceSum, expd, rowSum),
		ir.NewLinalgElemBinary(ir.BinDiv, expd, rowSum, out, true),
	}
	for _, op := range ops {
		setOrigin(op, origin)
	}
	return ops
}

// lowerSDPA decomposes scaled dot-product attention into the sequence
// the paper's Fig. 5 studies: a compute-bound QK^T matmul, a bandwidth-
// bound middle region of seven element-wise/reduction ops, and a final
// compute-bound attention-times-V matmul.
func lowerSDPA(x *ir.TorchSDPA) ([]ir.Op, error) {
	d := x.Q.Dims
	if len(d) != 4 {
		return nil, fmt.Errorf("lower: sdpa expects [B,H,S,D] shapes, got %v", d)
	}
	b, h, s, dk := d[0], d[1], d[2], d[3]
	es := x.Q.ElemSize
	scores := ir.NewArray(x.Out.Name+"_scores", es, b, h, s, s)
	scaled := ir.NewArray(x.Out.Name+"_scaled", es, b, h, s, s)
	probs := ir.NewArray(x.Out.Name+"_probs", es, b, h, s, s)
	attn := ir.NewArray(x.Out.Name+"_attn", es, b, h, s, s)

	var ops []ir.Op
	// QK^T: K is [B,H,S,D], read transposed on the last two dims.
	ops = append(ops, ir.NewLinalgBatchMatmul(x.Q, x.K, scores, true))
	// Middle region (7 ops): scale, then the 5-op softmax, then a copy
	// materializing the attention probabilities (as torch-mlir emits).
	ops = append(ops, ir.NewLinalgElemUnary(ir.UnaryScale, scores, scaled, 1/math.Sqrt(float64(dk))))
	ops = append(ops, lowerSoftmax(scaled, probs, "torch.sdpa")...)
	ops = append(ops, ir.NewLinalgElemUnary(ir.UnaryCopy, probs, attn, 0))
	// Attention-weighted values.
	ops = append(ops, ir.NewLinalgBatchMatmul(attn, x.V, x.Out, false))
	for _, op := range ops {
		setOrigin(op, x.OpName())
	}
	return ops, nil
}

// setOrigin stamps provenance on any linalg op that supports it.
func setOrigin(op ir.Op, origin string) {
	type originSetter interface{ SetOrigin(string) }
	if s, ok := op.(originSetter); ok {
		s.SetOrigin(origin)
	}
}
