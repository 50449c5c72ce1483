package core

import (
	"math/rand"
	"slices"
	"testing"

	"polyufc/internal/ir"
)

func TestRedundantCapRemoval(t *testing.T) {
	mod, f := ir.NewModule("caps")
	nest := &ir.Nest{Label: "n"}
	f.Ops = []ir.Op{
		&ir.SetUncoreCap{GHz: 1.2},
		&ir.SetUncoreCap{GHz: 2.0}, // shadows the previous cap
		nest,
		&ir.SetUncoreCap{GHz: 2.0}, // equals active cap: redundant
		nest,
	}
	n := dropRedundantCaps(mod)
	if n != 2 {
		t.Fatalf("rewrites = %d, want 2", n)
	}
	caps := 0
	for _, op := range f.Ops {
		if _, ok := op.(*ir.SetUncoreCap); ok {
			caps++
		}
	}
	if caps != 1 {
		t.Fatalf("remaining caps = %d, want 1", caps)
	}
}

// fixpointCapCleanup is the rewrite engine dropRedundantCaps replaced,
// kept as its reference: two local patterns — a cap directly followed by
// a cap, and a cap equal to the previous cap — tried in that order at
// each op, the first match removed, and the scan restarted from the first
// op after every rewrite until neither pattern matches anywhere.
func fixpointCapCleanup(mod *ir.Module) int {
	shadowed := func(ops []ir.Op, i int) bool {
		if _, ok := ops[i].(*ir.SetUncoreCap); !ok || i+1 >= len(ops) {
			return false
		}
		_, ok := ops[i+1].(*ir.SetUncoreCap)
		return ok
	}
	equal := func(ops []ir.Op, i int) bool {
		cur, ok := ops[i].(*ir.SetUncoreCap)
		if !ok {
			return false
		}
		for j := i - 1; j >= 0; j-- {
			if prev, ok := ops[j].(*ir.SetUncoreCap); ok {
				return prev.GHz == cur.GHz
			}
		}
		return false
	}
	applied := 0
	for _, f := range mod.Funcs {
		for {
			changed := false
			for i := 0; i < len(f.Ops) && !changed; i++ {
				for _, match := range []func([]ir.Op, int) bool{shadowed, equal} {
					if !match(f.Ops, i) {
						continue
					}
					next := make([]ir.Op, 0, len(f.Ops)-1)
					next = append(next, f.Ops[:i]...)
					f.Ops = append(next, f.Ops[i+1:]...)
					applied++
					changed = true
					break
				}
			}
			if !changed {
				break
			}
		}
	}
	return applied
}

// capFuncs decodes bytes into functions of caps and nests: 0xff starts
// the next function, otherwise the low bit picks a cap (frequency from
// the next two bits, so equal caps are common) or a nest.
func capFuncs(data []byte) [][]ir.Op {
	freqs := []float64{0.8, 1.2, 2.0, 2.0}
	funcs := [][]ir.Op{nil}
	for i, b := range data {
		switch {
		case b == 0xff:
			funcs = append(funcs, nil)
		case b&1 == 0:
			funcs[len(funcs)-1] = append(funcs[len(funcs)-1], &ir.SetUncoreCap{GHz: freqs[(b>>1)&3]})
		default:
			funcs[len(funcs)-1] = append(funcs[len(funcs)-1], &ir.Nest{Label: string(rune('a' + i%26))})
		}
	}
	return funcs
}

// checkCapCleanup runs the one-pass cleanup and the fixpoint reference on
// two modules holding the same ops and compares what each kept, pointer
// for pointer, and how many caps each removed.
func checkCapCleanup(t *testing.T, data []byte) {
	t.Helper()
	got, want := &ir.Module{Name: "got"}, &ir.Module{Name: "want"}
	for _, ops := range capFuncs(data) {
		got.Funcs = append(got.Funcs, &ir.Func{Ops: slices.Clone(ops)})
		want.Funcs = append(want.Funcs, &ir.Func{Ops: slices.Clone(ops)})
	}
	n, wantN := dropRedundantCaps(got), fixpointCapCleanup(want)
	if n != wantN {
		t.Fatalf("%x: removed %d caps, the fixpoint removed %d", data, n, wantN)
	}
	for i := range got.Funcs {
		if !slices.Equal(got.Funcs[i].Ops, want.Funcs[i].Ops) {
			t.Fatalf("%x: func %d kept %v, the fixpoint kept %v", data, i, got.Funcs[i].Ops, want.Funcs[i].Ops)
		}
	}
}

// TestDropRedundantCapsMatchesFixpoint: the one-pass cleanup keeps the
// same ops and counts the same removals as the greedy fixpoint engine it
// replaced, on random cap/nest sequences — so caps_removed and every
// capped module stay as they were.
func TestDropRedundantCapsMatchesFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 20000 {
		data := make([]byte, rng.Intn(24))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		checkCapCleanup(t, data)
	}
}

func FuzzDropRedundantCapsAgainstFixpoint(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 1})
	f.Add([]byte{0, 0, 4, 0, 1, 0xff, 2, 2, 1, 6})
	f.Fuzz(checkCapCleanup)
}
