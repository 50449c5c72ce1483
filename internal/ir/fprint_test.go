package ir_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"polyufc/internal/ir"
	"polyufc/internal/lower"
	"polyufc/internal/workloads"
)

// TestFprintMatchesReferencePrinter pins the writer form byte for byte
// against the string-building printer it replaced, on every kernel at the
// three dialect levels (as built, after torch->linalg, after
// linalg->affine). The stage memo's base key digests Fprint's output.
func TestFprintMatchesReferencePrinter(t *testing.T) {
	kernels := workloads.All()
	if len(kernels) != 37 {
		t.Fatalf("%d kernels, want 37", len(kernels))
	}
	for _, k := range kernels {
		mod, err := k.Build(workloads.Test)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		check := func(level string) {
			t.Helper()
			want := referencePrint(mod)
			var buf bytes.Buffer
			if err := mod.Fprint(&buf); err != nil {
				t.Fatalf("%s at %s: %v", k.Name, level, err)
			}
			if buf.String() != want {
				t.Fatalf("%s at %s: Fprint differs from the reference printer:\n--- got ---\n%s\n--- want ---\n%s", k.Name, level, buf.String(), want)
			}
			if got := mod.Print(); got != want {
				t.Fatalf("%s at %s: Print differs from the reference printer", k.Name, level)
			}
		}
		check("torch")
		if err := lower.TorchToLinalg(mod); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		check("linalg")
		if err := lower.LinalgToAffine(mod); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		check("affine")
	}
}

// TestFprintIndentsEmbeddedNewlines: a name containing a newline is
// re-indented line by line, as the reference printer's indent did, and a
// failing writer's error is returned.
func TestFprintIndentsEmbeddedNewlines(t *testing.T) {
	A := ir.NewArray("A\nB", 8, 4)
	stmt := &ir.Statement{Name: "S\n\nT", Flops: 1,
		Accesses: []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}}
	nest := &ir.Nest{Label: "n", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(3), stmt)}
	mod, f := ir.NewModule("m\nod")
	f.Name = "f\nn"
	f.Ops = []ir.Op{nest, &ir.SetUncoreCap{GHz: 1, From: "x\ny"}}
	if got, want := mod.Print(), referencePrint(mod); got != want {
		t.Fatalf("got %q\nwant %q", got, want)
	}
	if err := mod.Fprint(failingWriter{}); err == nil {
		t.Fatal("Fprint swallowed the writer's error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// referencePrint is the printer as it was before Fprint: every level
// renders to a string and the level above re-indents it.
func referencePrint(m *ir.Module) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "module @%s {\n", m.Name)
	for _, f := range m.Funcs {
		sb.WriteString(indent(referenceFunc(f), 2))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func referenceFunc(f *ir.Func) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func.func @%s(", f.Name)
	arrays := f.Arrays()
	parts := make([]string, len(arrays))
	for i, a := range arrays {
		parts[i] = "%" + a.String()
	}
	sb.WriteString(strings.Join(parts, ", "))
	sb.WriteString(") {\n")
	for _, op := range f.Ops {
		sb.WriteString(indent(referenceOp(op), 2))
	}
	sb.WriteString("}\n")
	return sb.String()
}

func referenceOp(op ir.Op) string {
	switch x := op.(type) {
	case *ir.SetUncoreCap:
		return fmt.Sprintf("%s {ghz = %.1f, for = %q}\n", x.OpName(), x.GHz, x.From)
	case *ir.Nest:
		var sb strings.Builder
		label := x.Label
		if label == "" {
			label = "nest"
		}
		fmt.Fprintf(&sb, "// affine nest %q", label)
		if x.Origin() != "" {
			fmt.Fprintf(&sb, " (from %s)", x.Origin())
		}
		sb.WriteString("\n")
		sb.WriteString(printLoop(x.Root))
		return sb.String()
	case *ir.TorchSDPA:
		return fmt.Sprintf("%s(%s, %s, %s) -> %s %s\n", x.OpName(), x.Q.Name, x.K.Name, x.V.Name, x.Out.Name, fmt.Sprintf("%v", x.Out.Dims))
	case *ir.TorchMatMul:
		return fmt.Sprintf("%s(%s, %s) -> %s %s\n", x.OpName(), x.A.Name, x.B.Name, x.Out.Name, fmt.Sprintf("%v", x.Out.Dims))
	case *ir.TorchConv2D:
		return fmt.Sprintf("%s(%s, %s) -> %s %s\n", x.OpName(), x.Input.Name, x.Filter.Name, x.Out.Name, fmt.Sprintf("%v", x.Out.Dims))
	default:
		ops := op.Operands()
		names := make([]string, len(ops))
		for i, a := range ops {
			names[i] = a.Name
		}
		s := fmt.Sprintf("%s(%s)", op.OpName(), strings.Join(names, ", "))
		if op.Origin() != "" {
			s += fmt.Sprintf(" {origin = %q}", op.Origin())
		}
		return s + "\n"
	}
}

func printLoop(l *ir.Loop) string {
	if l == nil {
		return ""
	}
	var sb strings.Builder
	kw := "affine.for"
	if l.Parallel {
		kw = "affine.parallel"
	}
	fmt.Fprintf(&sb, "%s %%%s = %s to %s {\n", kw, l.IV, boundStr(l.Lo, "max"), boundStr(l.Hi, "min"))
	for _, node := range l.Body {
		switch x := node.(type) {
		case *ir.Loop:
			sb.WriteString(indent(printLoop(x), 2))
		case *ir.Statement:
			sb.WriteString(indent(printStatement(x), 2))
		case *ir.CapNode:
			sb.WriteString(indent(fmt.Sprintf("polyufc.set_uncore_cap {ghz = %.1f}\n", x.Cap.GHz), 2))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func boundStr(bounds []ir.Bound, combiner string) string {
	if len(bounds) == 1 {
		return bounds[0].String()
	}
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = b.String()
	}
	return combiner + "(" + strings.Join(parts, ", ") + ")"
}

func printStatement(s *ir.Statement) string {
	var sb strings.Builder
	for _, a := range s.Accesses {
		if !a.Write {
			fmt.Fprintf(&sb, "%%v = affine.load %%%s[%s]\n", a.Array.Name, idxStr(a.Index))
		}
	}
	fmt.Fprintf(&sb, "// %s: %d flops\n", s.Name, s.Flops)
	for _, a := range s.Accesses {
		if a.Write {
			fmt.Fprintf(&sb, "affine.store %%v, %%%s[%s]\n", a.Array.Name, idxStr(a.Index))
		}
	}
	return sb.String()
}

func idxStr(idx []ir.AffExpr) string {
	parts := make([]string, len(idx))
	for i, e := range idx {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

func indent(s string, n int) string {
	pad := strings.Repeat(" ", n)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
