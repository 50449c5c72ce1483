package poly

import "testing"

var benchSink Poly

// BenchmarkSumVar is the triple summation of a triangular iteration count,
// sum_{i=0}^{N} sum_{j=0}^{i} sum_{k=j}^{N} (i+1) with N symbolic: three
// SumVar calls of rising degree per iteration.
func BenchmarkSumVar(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		N, i, j := Var(4, 0), Var(4, 1), Var(4, 2)
		body := i.Add(ConstInt(4, 1))
		body = SumVar(body, 3, j, N)
		body = SumVar(body, 2, ConstInt(4, 0), i)
		benchSink = SumVar(body, 1, ConstInt(4, 0), N)
	}
}
