package lower

import (
	"testing"

	"polyufc/internal/ir"
)

func TestTorchMatmulLowering(t *testing.T) {
	A := ir.NewArray("A", 4, 16, 32)
	B := ir.NewArray("B", 4, 32, 8)
	C := ir.NewArray("C", 4, 16, 8)
	mod, f := ir.NewModule("mm")
	f.Ops = []ir.Op{ir.NewTorchMatMul(A, B, C)}
	if err := TorchToLinalg(mod); err != nil {
		t.Fatal(err)
	}
	if len(f.Ops) != 1 {
		t.Fatalf("ops = %d", len(f.Ops))
	}
	lm, ok := f.Ops[0].(*ir.LinalgMatmul)
	if !ok {
		t.Fatalf("op = %T", f.Ops[0])
	}
	if lm.Origin() != "torch.matmul" {
		t.Fatalf("origin = %q", lm.Origin())
	}
	if err := LinalgToAffine(mod); err != nil {
		t.Fatal(err)
	}
	nest, ok := f.Ops[0].(*ir.Nest)
	if !ok {
		t.Fatalf("op = %T", f.Ops[0])
	}
	fl, err := nest.Flops()
	if err != nil || fl != 2*16*32*8 {
		t.Fatalf("flops = %d (%v)", fl, err)
	}
}

func TestSDPALoweringShape(t *testing.T) {
	// BERT shape from Tab. II: 2 x 12 x 128 x 64.
	b, h, s, d := int64(2), int64(12), int64(128), int64(64)
	es := int64(4)
	Q := ir.NewArray("Q", es, b, h, s, d)
	K := ir.NewArray("K", es, b, h, s, d)
	V := ir.NewArray("V", es, b, h, s, d)
	O := ir.NewArray("O", es, b, h, s, d)
	mod, f := ir.NewModule("sdpa")
	f.Ops = []ir.Op{ir.NewTorchSDPA(Q, K, V, O)}
	if err := TorchToLinalg(mod); err != nil {
		t.Fatal(err)
	}
	// Fig. 5 structure: matmul, 7 middle ops, matmul.
	if len(f.Ops) != 9 {
		t.Fatalf("sdpa lowered to %d linalg ops, want 9", len(f.Ops))
	}
	if _, ok := f.Ops[0].(*ir.LinalgBatchMatmul); !ok {
		t.Fatalf("first op = %T, want batch matmul", f.Ops[0])
	}
	if _, ok := f.Ops[8].(*ir.LinalgBatchMatmul); !ok {
		t.Fatalf("last op = %T, want batch matmul", f.Ops[8])
	}
	for i := 1; i < 8; i++ {
		if _, ok := f.Ops[i].(*ir.LinalgBatchMatmul); ok {
			t.Fatalf("middle op %d is a matmul", i)
		}
		if f.Ops[i].Origin() == "" {
			t.Fatalf("middle op %d has no origin", i)
		}
	}
	if err := LinalgToAffine(mod); err != nil {
		t.Fatal(err)
	}
	if len(f.Ops) != 9 {
		t.Fatalf("affine ops = %d", len(f.Ops))
	}
	// First matmul flops: 2 * B*H*S*S*D.
	nest := f.Ops[0].(*ir.Nest)
	fl, err := nest.Flops()
	if err != nil || fl != 2*b*h*s*s*d {
		t.Fatalf("QK^T flops = %d (%v), want %d", fl, err, 2*b*h*s*s*d)
	}
}

func TestSoftmaxLowering(t *testing.T) {
	in := ir.NewArray("X", 4, 8, 16)
	out := ir.NewArray("Y", 4, 8, 16)
	ops := lowerSoftmax(in, out, "torch.softmax")
	if len(ops) != 5 {
		t.Fatalf("softmax lowered to %d ops, want 5", len(ops))
	}
	// Reduction outputs must drop the last dim.
	red := ops[0].(*ir.LinalgRowReduce)
	if len(red.Out.Dims) != 1 || red.Out.Dims[0] != 8 {
		t.Fatalf("rowmax shape = %v", red.Out.Dims)
	}
}

func TestConv2DLowering(t *testing.T) {
	// AlexNet first layer: 1x3x224x224, filter 64x3x11x11, stride 4.
	in := ir.NewArray("in", 4, 1, 3, 224, 224)
	flt := ir.NewArray("flt", 4, 64, 3, 11, 11)
	oh := (int64(224)-11)/4 + 1
	out := ir.NewArray("out", 4, 1, 64, oh, oh)
	mod, f := ir.NewModule("conv")
	f.Ops = []ir.Op{ir.NewTorchConv2D(in, flt, out, 4, 4)}
	if err := TorchToLinalg(mod); err != nil {
		t.Fatal(err)
	}
	if err := LinalgToAffine(mod); err != nil {
		t.Fatal(err)
	}
	nest := f.Ops[0].(*ir.Nest)
	fl, err := nest.Flops()
	want := 2 * int64(1) * 64 * oh * oh * 3 * 11 * 11
	if err != nil || fl != want {
		t.Fatalf("conv flops = %d (%v), want %d", fl, err, want)
	}
	// 7-deep loop nest.
	depth := 0
	nest.WalkLoops(func(_ *ir.Loop, d int) {
		if d+1 > depth {
			depth = d + 1
		}
	})
	if depth != 7 {
		t.Fatalf("conv loop depth = %d, want 7", depth)
	}
}

func TestBroadcastBinaryLowering(t *testing.T) {
	a := ir.NewArray("a", 4, 4, 6)
	bArr := ir.NewArray("b", 4, 4)
	out := ir.NewArray("o", 4, 4, 6)
	op := ir.NewLinalgElemBinary(ir.BinDiv, a, bArr, out, true)
	nest, err := LowerLinalgOp(op, "t")
	if err != nil {
		t.Fatal(err)
	}
	sts := nest.Statements()
	if len(sts) != 1 {
		t.Fatalf("statements = %d", len(sts))
	}
	var bAccess *ir.Access
	for i := range sts[0].Stmt.Accesses {
		acc := &sts[0].Stmt.Accesses[i]
		if acc.Array == bArr {
			bAccess = acc
		}
	}
	if bAccess == nil || len(bAccess.Index) != 1 {
		t.Fatalf("broadcast access index = %+v", bAccess)
	}
}

func TestCapsPassThroughLowering(t *testing.T) {
	A := ir.NewArray("A", 4, 4, 4)
	B := ir.NewArray("B", 4, 4, 4)
	C := ir.NewArray("C", 4, 4, 4)
	mod, f := ir.NewModule("caps")
	f.Ops = []ir.Op{
		&ir.SetUncoreCap{GHz: 1.5},
		ir.NewTorchMatMul(A, B, C),
	}
	if err := TorchToLinalg(mod); err != nil {
		t.Fatal(err)
	}
	if err := LinalgToAffine(mod); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Ops[0].(*ir.SetUncoreCap); !ok {
		t.Fatalf("cap not preserved: %T", f.Ops[0])
	}
}

func TestBatchMatmulTransB(t *testing.T) {
	// Q[2,3,4] x K^T where K[2,5,4] -> scores[2,3,5].
	q := ir.NewArray("q", 4, 2, 3, 4)
	k := ir.NewArray("k", 4, 2, 5, 4)
	s := ir.NewArray("s", 4, 2, 3, 5)
	op := ir.NewLinalgBatchMatmul(q, k, s, true)
	nest, err := LowerLinalgOp(op, "t")
	if err != nil {
		t.Fatal(err)
	}
	fl, err := nest.Flops()
	if err != nil || fl != 2*2*3*5*4 {
		t.Fatalf("flops = %d (%v)", fl, err)
	}
}
