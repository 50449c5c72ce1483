package ir

// torchBase provides the shared Op plumbing for torch-dialect operations.
type torchBase struct {
	name   string
	origin string
	args   []*Array
}

func (t *torchBase) Dialect() Dialect   { return DialectTorch }
func (t *torchBase) OpName() string     { return "torch." + t.name }
func (t *torchBase) Operands() []*Array { return t.args }
func (t *torchBase) Origin() string     { return t.origin }

// TorchMatMul is torch.matmul: Out[M,N] = A[M,K] x B[K,N]. Batch dims, if
// any, lead the shapes.
type TorchMatMul struct {
	torchBase
	A, B, Out *Array
}

// NewTorchMatMul builds a torch.matmul over 2-D operands.
func NewTorchMatMul(a, b, out *Array) *TorchMatMul {
	return &TorchMatMul{
		torchBase: torchBase{name: "matmul", args: []*Array{a, b, out}},
		A:         a, B: b, Out: out,
	}
}

// TorchConv2D is torch.conv2d with NCHW input and FCHW filter layout.
type TorchConv2D struct {
	torchBase
	Input, Filter, Out *Array
	StrideH, StrideW   int64
}

// NewTorchConv2D builds a torch.conv2d; input is NxCxHxW, filter FxCxKHxKW,
// output NxFxOHxOW with OH = (H-KH)/strideH + 1.
func NewTorchConv2D(input, filter, out *Array, strideH, strideW int64) *TorchConv2D {
	return &TorchConv2D{
		torchBase: torchBase{name: "conv2d", args: []*Array{input, filter, out}},
		Input:     input, Filter: filter, Out: out,
		StrideH: strideH, StrideW: strideW,
	}
}

// TorchSDPA is torch.scaled_dot_product_attention over shapes
// [B, H, S, D] for Q/K/V and output.
type TorchSDPA struct {
	torchBase
	Q, K, V, Out *Array
}

// NewTorchSDPA builds a torch.sdpa op.
func NewTorchSDPA(q, k, v, out *Array) *TorchSDPA {
	return &TorchSDPA{
		torchBase: torchBase{name: "sdpa", args: []*Array{q, k, v, out}},
		Q:         q, K: k, V: v, Out: out,
	}
}
