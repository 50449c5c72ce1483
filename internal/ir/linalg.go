package ir

// linalgBase provides shared Op plumbing for linalg-dialect operations.
type linalgBase struct {
	name   string
	origin string
	args   []*Array
}

func (l *linalgBase) Dialect() Dialect   { return DialectLinalg }
func (l *linalgBase) OpName() string     { return "linalg." + l.name }
func (l *linalgBase) Operands() []*Array { return l.args }
func (l *linalgBase) Origin() string     { return l.origin }

// SetOrigin records the higher-level op this op was lowered from.
func (l *linalgBase) SetOrigin(o string) { l.origin = o }

// LinalgMatmul is linalg.matmul: Out[M,N] += A[M,K] * B[K,N].
type LinalgMatmul struct {
	linalgBase
	A, B, Out *Array
}

// NewLinalgMatmul builds a linalg.matmul.
func NewLinalgMatmul(a, b, out *Array) *LinalgMatmul {
	return &LinalgMatmul{
		linalgBase: linalgBase{name: "matmul", args: []*Array{a, b, out}},
		A:          a, B: b, Out: out,
	}
}

// LinalgBatchMatmul is linalg.batch_matmul with an arbitrary number of
// leading batch dimensions: Out[..., M, N] += A[..., M, K] * B[..., K, N];
// with TransB set, B is [..., N, K] and is read transposed.
type LinalgBatchMatmul struct {
	linalgBase
	A, B, Out *Array
	TransB    bool
}

// NewLinalgBatchMatmul builds a linalg.batch_matmul.
func NewLinalgBatchMatmul(a, b, out *Array, transB bool) *LinalgBatchMatmul {
	name := "batch_matmul"
	if transB {
		name = "batch_matmul_transpose_b"
	}
	return &LinalgBatchMatmul{
		linalgBase: linalgBase{name: name, args: []*Array{a, b, out}},
		A:          a, B: b, Out: out, TransB: transB,
	}
}

// LinalgConv2D is linalg.conv_2d_nchw_fchw.
type LinalgConv2D struct {
	linalgBase
	Input, Filter, Out *Array
	StrideH, StrideW   int64
}

// NewLinalgConv2D builds a linalg.conv_2d_nchw_fchw.
func NewLinalgConv2D(in, flt, out *Array, sh, sw int64) *LinalgConv2D {
	return &LinalgConv2D{
		linalgBase: linalgBase{name: "conv_2d_nchw_fchw", args: []*Array{in, flt, out}},
		Input:      in, Filter: flt, Out: out, StrideH: sh, StrideW: sw,
	}
}

// UnaryKind enumerates element-wise unary operations.
type UnaryKind int

// Unary kinds.
const (
	UnaryExp UnaryKind = iota
	UnaryRelu
	UnaryScale // multiply by a constant
	UnaryCopy
	UnaryRecip
)

func (k UnaryKind) String() string {
	switch k {
	case UnaryExp:
		return "exp"
	case UnaryRelu:
		return "relu"
	case UnaryScale:
		return "scale"
	case UnaryCopy:
		return "copy"
	case UnaryRecip:
		return "recip"
	}
	return "unary?"
}

// LinalgElemUnary is an element-wise unary linalg.generic.
type LinalgElemUnary struct {
	linalgBase
	Kind    UnaryKind
	Alpha   float64 // used by UnaryScale
	In, Out *Array
}

// NewLinalgElemUnary builds an element-wise unary op over same-shape arrays.
func NewLinalgElemUnary(kind UnaryKind, in, out *Array, alpha float64) *LinalgElemUnary {
	return &LinalgElemUnary{
		linalgBase: linalgBase{name: "elemwise_" + kind.String(), args: []*Array{in, out}},
		Kind:       kind, Alpha: alpha, In: in, Out: out,
	}
}

// BinaryKind enumerates element-wise binary operations.
type BinaryKind int

// Binary kinds.
const (
	BinAdd BinaryKind = iota
	BinSub
	BinMul
	BinDiv
)

func (k BinaryKind) String() string {
	switch k {
	case BinAdd:
		return "add"
	case BinSub:
		return "sub"
	case BinMul:
		return "mul"
	case BinDiv:
		return "div"
	}
	return "bin?"
}

// LinalgElemBinary is an element-wise binary linalg.generic. With
// BroadcastB set, B has one fewer dimension than A and is broadcast along
// A's last dimension (the softmax normalization pattern).
type LinalgElemBinary struct {
	linalgBase
	Kind       BinaryKind
	A, B, Out  *Array
	BroadcastB bool
}

// NewLinalgElemBinary builds an element-wise binary op.
func NewLinalgElemBinary(kind BinaryKind, a, b, out *Array, broadcastB bool) *LinalgElemBinary {
	return &LinalgElemBinary{
		linalgBase: linalgBase{name: "elemwise_" + kind.String(), args: []*Array{a, b, out}},
		Kind:       kind, A: a, B: b, Out: out, BroadcastB: broadcastB,
	}
}

// ReduceKind enumerates row reductions.
type ReduceKind int

// Reduce kinds.
const (
	ReduceSum ReduceKind = iota
	ReduceMax
)

func (k ReduceKind) String() string {
	if k == ReduceMax {
		return "max"
	}
	return "sum"
}

// LinalgRowReduce reduces the last dimension of In into Out (which has one
// fewer dimension).
type LinalgRowReduce struct {
	linalgBase
	Kind    ReduceKind
	In, Out *Array
}

// NewLinalgRowReduce builds a last-dimension reduction.
func NewLinalgRowReduce(kind ReduceKind, in, out *Array) *LinalgRowReduce {
	return &LinalgRowReduce{
		linalgBase: linalgBase{name: "reduce_" + kind.String(), args: []*Array{in, out}},
		Kind:       kind, In: in, Out: out,
	}
}

// LinalgFill initializes Out with a constant.
type LinalgFill struct {
	linalgBase
	Out   *Array
	Value float64
}
