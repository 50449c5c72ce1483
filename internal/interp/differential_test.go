package interp

import (
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
// no accesses, and leaf loops holding several statements.
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
	var loop func(ivs []string, depth int) *ir.Loop
	loop = func(ivs []string, depth int) *ir.Loop {
		l := &ir.Loop{IV: fmt.Sprint("i", len(ivs)), Lo: bounds(ivs, true), Hi: bounds(ivs, false)}
		inner := append(append([]string(nil), ivs...), l.IV)
		for n := 1 + r.Intn(3); n > 0; n-- {
			if depth > 1 && r.Intn(2) == 0 {
				l.Body = append(l.Body, loop(inner, depth-1))
			} else {
				l.Body = append(l.Body, stmt(inner))
			}
		}
		return l
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
	nonEmpty, imperfect := 0, 0
	for seed := int64(0); seed < 400; seed++ {
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
		var streamedStats [2]Stats
		var wg sync.WaitGroup
		for i := range streamed {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				streamedStats[i] = prog.RunStreams(&streamed[i])
			}(i)
		}
		var single []ref
		singleStats := prog.Run(TracerFunc(func(addr, size int64, write bool) {
			single = append(single, ref{Addr: addr, Size: int32(size), Write: write})
		}))
		wg.Wait()
		for name, got := range map[string][]ref{"stream run 0": streamed[0].refs, "stream run 1": streamed[1].refs, "per-access run": single} {
			if len(got) != len(want) {
				t.Fatalf("seed %d, %s: %d references, want %d", seed, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d, %s: reference %d is %+v, want %+v", seed, name, i, got[i], want[i])
				}
			}
		}
		for name, got := range map[string]Stats{"stream run 0": streamedStats[0], "stream run 1": streamedStats[1], "per-access run": singleStats} {
			if got != wantStats {
				t.Fatalf("seed %d, %s: stats %+v, want %+v", seed, name, got, wantStats)
			}
		}
	}
	// The generator must keep producing what the test is for.
	if nonEmpty < 100 || imperfect < 50 {
		t.Fatalf("only %d nests with references and %d imperfect nests in 400 draws", nonEmpty, imperfect)
	}
}

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
