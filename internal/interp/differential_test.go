package interp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polyufc/internal/cachesim"
	"polyufc/internal/ir"
)

// ref is one reference of a trace.
type ref struct {
	Addr  int64
	Size  int32
	Write bool
}

// refRun is the reference the walker is checked against: a per-access
// recursion straight over the ir, every bound and every address evaluated
// from scratch against an environment of IV values. It gives up (false)
// past maxRefs references.
func refRun(nest *ir.Nest, layout *Layout, maxRefs int) (refs []ref, st Stats, ok bool) {
	env := map[string]int64{}
	var walk func(l *ir.Loop) bool
	walk = func(l *ir.Loop) bool {
		lo, hi := int64(-1<<62), int64(1<<62)
		for _, b := range l.Lo {
			lo = max(lo, ceilDiv(b.Expr.Eval(env), b.Div))
		}
		for _, b := range l.Hi {
			hi = min(hi, floorDiv(b.Expr.Eval(env), b.Div))
		}
		defer delete(env, l.IV)
		for iv := lo; iv <= hi; iv++ {
			env[l.IV] = iv
			for _, node := range l.Body {
				switch x := node.(type) {
				case *ir.Loop:
					if !walk(x) {
						return false
					}
				case *ir.Statement:
					st.Instances++
					st.Flops += x.Flops
					for _, acc := range x.Accesses {
						addr := layout.Base[acc.Array]
						for d, stride := range acc.Array.Strides() {
							addr += acc.Array.ElemSize * stride * acc.Index[d].Eval(env)
						}
						if acc.Write {
							st.Stores++
						} else {
							st.Loads++
						}
						refs = append(refs, ref{Addr: addr, Size: int32(acc.Array.ElemSize), Write: acc.Write})
					}
					if len(refs) > maxRefs {
						return false
					}
				}
			}
		}
		return true
	}
	ok = walk(nest.Root)
	return refs, st, ok
}

// randomNest draws a nest of the shapes tiling and skewing produce and a
// few they do not: composite max/min bounds with non-unit divisors,
// bounds and indices with negative coefficients on outer IVs, ranges that
// come out empty, statements beside loops at every depth, statements with
// no accesses, leaf loops holding several statements, and chains — loops
// whose body is one loop — of the shapes the walker folds and of the
// shapes it must not.
func randomNest(r *rand.Rand) *ir.Nest {
	arrays := []*ir.Array{
		ir.NewArray("A", 8, 7, 5),
		ir.NewArray("B", 4, 11),
		ir.NewArray("C", 8, 3, 4, 2),
	}
	affine := func(ivs []string, maxCoef, maxConst int) ir.AffExpr {
		e := ir.AffConst(int64(r.Intn(2*maxConst+1) - maxConst))
		for _, iv := range ivs {
			if r.Intn(2) == 0 {
				e = e.Add(ir.AffTerm(int64(r.Intn(2*maxCoef+1)-maxCoef), iv))
			}
		}
		return e
	}
	bounds := func(ivs []string, lower bool) []ir.Bound {
		var out []ir.Bound
		for n := 1 + r.Intn(2); n > 0; n-- {
			div := int64(1)
			if r.Intn(3) == 0 {
				div = int64(2 + r.Intn(3))
			}
			e := affine(ivs, 1, 3).Scale(div)
			if !lower {
				e = e.AddConst(int64(r.Intn(6)) * div)
			}
			out = append(out, ir.BDiv(e.AddConst(int64(r.Intn(3))), div))
		}
		return out
	}
	stmt := func(ivs []string) *ir.Statement {
		s := &ir.Statement{Name: "S", Flops: int64(r.Intn(3))}
		for n := r.Intn(4); n > 0; n-- {
			a := arrays[r.Intn(len(arrays))]
			acc := ir.Access{Array: a, Write: r.Intn(3) == 0}
			for range a.Dims {
				acc.Index = append(acc.Index, affine(ivs, 2, 4))
			}
			s.Accesses = append(s.Accesses, acc)
		}
		return s
	}
	// chain draws a loop whose body is one loop, depth levels down to a
	// leaf whose upper bound exceeds its lower one by a constant: one or two
	// iterations mostly, sometimes more, sometimes through a divisor, and
	// sometimes behind a second bound pair. The middle loops run up to
	// fifteen iterations, so some unrolled chains outgrow the fold part-way,
	// or none. Any bound may read an outer IV: the parent's, which stops the
	// parent folding, or a grandparent's, which makes the middle triangular.
	var chain func(ivs []string, depth int) *ir.Loop
	chain = func(ivs []string, depth int) *ir.Loop {
		l := &ir.Loop{IV: fmt.Sprint("i", len(ivs))}
		inner := append(append([]string(nil), ivs...), l.IV)
		lo := ir.AffConst(int64(r.Intn(3)))
		for _, iv := range ivs {
			if r.Intn(6) == 0 {
				lo = lo.Add(ir.AffTerm(int64(1-2*r.Intn(2)), iv))
			}
		}
		span := int64(r.Intn(16) - 1)
		if depth == 0 {
			span = int64(r.Intn(2))
			if r.Intn(5) == 0 {
				span = int64(2 + r.Intn(4))
			}
		}
		div := int64(1)
		if r.Intn(4) == 0 {
			div = int64(2 + r.Intn(3))
		}
		l.Lo = []ir.Bound{ir.BDiv(lo.Scale(div), div)}
		l.Hi = []ir.Bound{ir.BDiv(lo.AddConst(span).Scale(div).AddConst(int64(r.Intn(int(div)))), div)}
		if r.Intn(4) == 0 {
			l.Lo = append(l.Lo, bounds(ivs, true)...)
			l.Hi = append(l.Hi, bounds(ivs, false)...)
		}
		if depth == 0 {
			for n := 1 + r.Intn(3); n > 0; n-- {
				l.Body = append(l.Body, stmt(inner))
			}
		} else {
			l.Body = []ir.Node{chain(inner, depth-1)}
		}
		return l
	}
	var loop func(ivs []string, depth int) *ir.Loop
	loop = func(ivs []string, depth int) *ir.Loop {
		l := &ir.Loop{IV: fmt.Sprint("i", len(ivs)), Lo: bounds(ivs, true), Hi: bounds(ivs, false)}
		inner := append(append([]string(nil), ivs...), l.IV)
		for n := 1 + r.Intn(3); n > 0; n-- {
			switch {
			case depth > 1 && r.Intn(3) == 0:
				l.Body = append(l.Body, chain(inner, r.Intn(depth)))
			case depth > 1 && r.Intn(2) == 0:
				l.Body = append(l.Body, loop(inner, depth-1))
			default:
				l.Body = append(l.Body, stmt(inner))
			}
		}
		return l
	}
	if r.Intn(2) == 0 {
		return &ir.Nest{Label: "chain", Root: chain(nil, 1+r.Intn(4))}
	}
	return &ir.Nest{Label: "random", Root: loop(nil, 1+r.Intn(4))}
}

// recorder is a Consumer that keeps the stream, expanded reference by
// reference. The slice it is handed is the run's scratch, so it may leave
// anything behind in it: scribble does.
type recorder struct {
	refs     []ref
	scribble bool
}

func (c *recorder) AccessStreams(streams []cachesim.Stream, trip int64) {
	for t := int64(0); t < trip; t++ {
		for _, st := range streams {
			c.refs = append(c.refs, ref{Addr: st.Addr + t*st.Stride, Size: st.Size, Write: st.Write})
		}
	}
	if c.scribble {
		for i := range streams {
			streams[i] = cachesim.Stream{Addr: -1, Stride: 1 << 40, Size: 77, Write: !streams[i].Write}
		}
	}
}

func TestDifferentialAgainstPerAccessRecursion(t *testing.T) {
	const draws = 1000
	nonEmpty, imperfect, folded, bailed := 0, 0, 0, 0
	for seed := int64(0); seed < draws; seed++ {
		nest := randomNest(rand.New(rand.NewSource(seed)))
		layout := NewLayout(nest.Operands())
		want, wantStats, ok := refRun(nest, layout, 200_000)
		if !ok {
			continue
		}
		if len(want) > 0 {
			nonEmpty++
		}
		for _, node := range nest.Root.Body {
			if _, isLoop := node.(*ir.Loop); isLoop && len(nest.Root.Body) > 1 {
				imperfect++
				break
			}
		}
		prog, err := Compile(nest, layout)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Two concurrent stream runs of the one Program and a per-access run
		// through the Tracer adapter.
		streamed := [2]recorder{1: {scribble: true}}
		var runs [2]*run
		var wg sync.WaitGroup
		for i := range streamed {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runs[i] = prog.execute(&streamed[i])
			}(i)
		}
		var single []ref
		singleStats := prog.Run(TracerFunc(func(addr, size int64, write bool) {
			single = append(single, ref{Addr: addr, Size: int32(size), Write: write})
		}))
		wg.Wait()
		if runs[0].folds > 0 {
			folded++
		}
		if runs[0].bails > 0 {
			bailed++
		}
		traces := map[string][]ref{"stream run 0": streamed[0].refs, "stream run 1": streamed[1].refs, "per-access run": single}
		stats := map[string]Stats{"stream run 0": runs[0].st, "stream run 1": runs[1].st, "per-access run": singleStats}
		for name := range traces {
			if d := diffTrace(traces[name], stats[name], want, wantStats); d != "" {
				t.Fatalf("seed %d, %s: %s", seed, name, d)
			}
		}
	}
	// The generator must keep producing what the test is for.
	if nonEmpty < 250 || imperfect < 125 || folded < 200 || bailed < 20 {
		t.Fatalf("only %d nests with references, %d imperfect nests, %d that folded and %d that abandoned a fold part-way in %d draws",
			nonEmpty, imperfect, folded, bailed, draws)
	}
	t.Logf("%d nests with references, %d imperfect, %d folded, %d abandoned a fold part-way", nonEmpty, imperfect, folded, bailed)
}

// diffTrace describes the first difference between a run's trace and
// counts and the reference's, or returns "".
func diffTrace(got []ref, gotStats Stats, want []ref, wantStats Stats) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d references, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("reference %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if gotStats != wantStats {
		return fmt.Sprintf("stats %+v, want %+v", gotStats, wantStats)
	}
	return ""
}

// checkStreams runs a nest into a recorder, fails unless the stream and
// the counts are refRun's, and returns the run. It skips a nest too large
// for the reference.
func checkStreams(t *testing.T, nest *ir.Nest) *run {
	t.Helper()
	layout := NewLayout(nest.Operands())
	want, wantStats, ok := refRun(nest, layout, 200_000)
	if !ok {
		t.Skip("nest too large for the reference")
	}
	prog, err := Compile(nest, layout)
	if err != nil {
		t.Fatal(err)
	}
	var got recorder
	r := prog.execute(&got)
	if d := diffTrace(got.refs, r.st, want, wantStats); d != "" {
		t.Fatal(d)
	}
	return r
}

// convNest is a direct convolution of one CHW image by f filters of k×k,
// the filter loops r and s innermost:
// out[f][y][x] += in[c][y+r][x+s] * w[f][c][r][s].
func convNest(f, c, size, k int64) *ir.Nest {
	o := size - k + 1
	in := ir.NewArray("in", 4, c, size, size)
	w := ir.NewArray("w", 4, f, c, k, k)
	out := ir.NewArray("out", 4, f, o, o)
	F, C, Y, X, R, S := ir.AffVar("f"), ir.AffVar("c"), ir.AffVar("y"), ir.AffVar("x"), ir.AffVar("r"), ir.AffVar("s")
	stmt := &ir.Statement{Name: "S", Flops: 2, Accesses: []ir.Access{
		{Array: in, Index: []ir.AffExpr{C, Y.Add(R), X.Add(S)}},
		{Array: w, Index: []ir.AffExpr{F, C, R, S}},
		{Array: out, Index: []ir.AffExpr{F, Y, X}},
		{Array: out, Write: true, Index: []ir.AffExpr{F, Y, X}},
	}}
	loop := func(iv string, n int64, body ir.Node) *ir.Loop {
		return ir.SimpleLoop(iv, ir.AffConst(0), ir.AffConst(n-1), body)
	}
	return &ir.Nest{Label: "conv", Root: loop("f", f, loop("y", o, loop("x", o, loop("c", c, loop("r", k, loop("s", k, stmt))))))}
}

// A 1×1 convolution's filter loops run once, so its chain folds: not from
// the filter or row loop, whose unrolled bodies outgrow foldRefs part-way,
// but from the column loop, one consumer call per row. An 11×11 one's
// filter loops run eleven times and fold nowhere.
func TestFoldShortLeavesOnly(t *testing.T) {
	r := checkStreams(t, convNest(3, 5, 6, 1))
	if want := 3 * 6; r.folds != want || r.bails != 3+1 {
		t.Errorf("1×1 convolution: %d folds and %d abandoned, want %d and %d", r.folds, r.bails, want, 3+1)
	}
	if r := checkStreams(t, convNest(2, 2, 13, 11)); r.folds != 0 || r.bails != 0 {
		t.Errorf("11×11 convolution: %d folds and %d abandoned, want none", r.folds, r.bails)
	}
}

// FuzzStreamsAgainstRecursion draws nests from the fuzzer's bytes and
// checks the walker's stream against the per-access recursion.
func FuzzStreamsAgainstRecursion(f *testing.F) {
	for _, seed := range []string{"", "\x01", "chain", "\xff\x00\x7f\x80\x10\x20\x40\x01\x03\x05\x07\x09\x0b\x0d\x0f\x11"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStreams(t, randomNest(rand.New(&byteSource{data})))
	})
}

// byteSource is a rand.Source that reads its numbers from bytes, eight at
// a time, and zeros once they run out: a mutation of the bytes changes the
// draws it covers and no others.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	var b [8]byte
	s.data = s.data[copy(b[:], s.data):]
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

func (*byteSource) Seed(int64) {}

// An expression may name only the IVs of enclosing loops: a sibling's IV
// has no value where the expression is evaluated.
func TestCompileRejectsIVOutOfScope(t *testing.T) {
	A := ir.NewArray("A", 8, 8)
	s := &ir.Statement{Name: "S", Accesses: []ir.Access{{Array: A, Index: []ir.AffExpr{ir.AffVar("j")}}}}
	nest := &ir.Nest{Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(3),
		ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(3)),
		ir.SimpleLoop("k", ir.AffConst(0), ir.AffConst(3), s))}
	if _, err := Compile(nest, NewLayout(nest.Operands())); err == nil {
		t.Fatal("an access through a sibling loop's IV compiled")
	}
}
