// Package workloads defines the evaluation kernels of the paper's Table
// II: the PolyBench suite (encoded directly as affine nests — the loop and
// access structure is what the polyhedral analyses and the cache simulator
// consume) and the ML kernels (conv2d, sdpa, lm-head matmul) built at the
// torch dialect and lowered through the full flow.
package workloads

import (
	"fmt"
	"sort"
	"sync"

	"polyufc/internal/ir"
	"polyufc/internal/lower"
)

// SizeClass selects problem sizes: Test for unit tests, Bench for the
// default benchmark harness (simulation-scale), Full for paper-faithful
// shapes (slow; opt-in).
type SizeClass int

// Size classes.
const (
	Test SizeClass = iota
	Bench
	Full
)

func (s SizeClass) String() string {
	switch s {
	case Test:
		return "test"
	case Bench:
		return "bench"
	case Full:
		return "full"
	}
	return "size?"
}

// ParseSize maps a request or flag string to a SizeClass; the empty
// string is the benchmark harness default.
func ParseSize(s string) (SizeClass, bool) {
	switch s {
	case "test":
		return Test, true
	case "bench", "":
		return Bench, true
	case "full":
		return Full, true
	}
	return Bench, false
}

// Kernel is one registered workload.
type Kernel struct {
	Name     string
	Suite    string // "polybench" or "ml"
	Category string // blas, kernels, solvers, stencils, datamining, medley, vision, nlp
	// PaperSize documents the problem size the paper evaluates (Tab. II /
	// PolyBench LARGE).
	PaperSize string
	// Hidden kernels are variants for specific studies (e.g. power-of-two
	// sizes for the Fig. 8 conflict analysis); they are reachable by name
	// but excluded from All().
	Hidden bool
	// Build returns the kernel module at the given size class. ML
	// kernels are built at the torch dialect; PolyBench at affine. A
	// registered kernel builds each size class once and hands every caller
	// the same sealed module (ir.Module.Seal), which nobody may write: a
	// caller that rewrites it takes a spine copy (ir.Module.CopySpine).
	Build func(SizeClass) (*ir.Module, error)
}

var registry = map[string]Kernel{}

func register(k Kernel) {
	if _, dup := registry[k.Name]; dup {
		panic("workloads: duplicate kernel " + k.Name)
	}
	k.Build = buildOnce(k.Name, k.Build)
	registry[k.Name] = k
}

// buildOnce wraps a kernel's builder so that each size class is built and
// sealed once, then shared; a failed build is kept too. A size outside the
// three classes is handed to build on every call.
func buildOnce(name string, build func(SizeClass) (*ir.Module, error)) func(SizeClass) (*ir.Module, error) {
	var built [Full + 1]struct {
		once sync.Once
		mod  *ir.Module
		err  error
	}
	return func(size SizeClass) (*ir.Module, error) {
		if size < Test || size > Full {
			return build(size)
		}
		b := &built[size]
		b.once.Do(func() {
			// A panicking build leaves this error behind, not a nil module.
			b.err = fmt.Errorf("workloads: building %s at %s panicked", name, size)
			if b.mod, b.err = build(size); b.err == nil {
				b.mod.Seal()
			}
		})
		return b.mod, b.err
	}
}

// All returns every registered non-hidden kernel, sorted by suite then
// name.
func All() []Kernel {
	out := make([]Kernel, 0, len(registry))
	for _, k := range registry {
		if k.Hidden {
			continue
		}
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PolyBench returns the PolyBench kernels only.
func PolyBench() []Kernel {
	var out []Kernel
	for _, k := range All() {
		if k.Suite == "polybench" {
			out = append(out, k)
		}
	}
	return out
}

// ML returns the vision/NLP kernels of Table II.
func ML() []Kernel {
	var out []Kernel
	for _, k := range All() {
		if k.Suite == "ml" {
			out = append(out, k)
		}
	}
	return out
}

// ByName returns the named kernel.
func ByName(name string) (Kernel, error) {
	k, ok := registry[name]
	if !ok {
		return Kernel{}, fmt.Errorf("workloads: unknown kernel %q", name)
	}
	return k, nil
}

// BuildAffine builds the kernel and lowers it all the way to affine nests.
// The result is the caller's own spine over the shared module's bodies.
func (k Kernel) BuildAffine(size SizeClass) (*ir.Module, error) {
	built, err := k.Build(size)
	if err != nil {
		return nil, err
	}
	mod := built.CopySpine()
	if err := lower.TorchToLinalg(mod); err != nil {
		return nil, err
	}
	if err := lower.LinalgToAffine(mod); err != nil {
		return nil, err
	}
	return mod, nil
}

// --- construction helpers -------------------------------------------------

const f64 = 8

// stmt builds a statement.
func stmt(name string, flops int64, accs ...ir.Access) *ir.Statement {
	return &ir.Statement{Name: name, Flops: flops, Accesses: accs}
}

// rd and wr build accesses.
func rd(a *ir.Array, idx ...ir.AffExpr) ir.Access {
	return ir.Access{Array: a, Index: idx}
}

func wr(a *ir.Array, idx ...ir.AffExpr) ir.Access {
	return ir.Access{Array: a, Write: true, Index: idx}
}

// rectNest builds a rectangular perfect nest over [0, n_i) per IV.
func rectNest(label string, ivs []string, extents []int64, s *ir.Statement) *ir.Nest {
	var root, cur *ir.Loop
	for i, iv := range ivs {
		l := ir.SimpleLoop(iv, ir.AffConst(0), ir.AffConst(extents[i]-1))
		if cur == nil {
			root = l
		} else {
			cur.Body = append(cur.Body, l)
		}
		cur = l
	}
	cur.Body = append(cur.Body, s)
	return &ir.Nest{Label: label, Root: root}
}

// triNestLE builds a nest where the last IV ranges over [0, prev] (lower
// triangle, j <= i).
func triNestLE(label string, outerIV string, n int64, innerIV string, s *ir.Statement) *ir.Nest {
	inner := ir.SimpleLoop(innerIV, ir.AffConst(0), ir.AffVar(outerIV), s)
	outer := ir.SimpleLoop(outerIV, ir.AffConst(0), ir.AffConst(n-1), inner)
	return &ir.Nest{Label: label, Root: outer}
}

// v is shorthand for an IV expression.
func v(iv string) ir.AffExpr { return ir.AffVar(iv) }

// mkModule wraps nests into a module/function.
func mkModule(name string, ops ...ir.Op) *ir.Module {
	mod, f := ir.NewModule(name)
	f.Ops = ops
	return mod
}
