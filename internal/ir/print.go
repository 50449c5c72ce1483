package ir

import (
	"fmt"
	"io"
	"strings"
)

// Print renders the module in an MLIR-flavoured textual form.
func (m *Module) Print() string {
	var sb strings.Builder
	m.Fprint(&sb) // a strings.Builder does not fail
	return sb.String()
}

// Fprint writes the text Print returns to w one line at a time, so a
// caller that only digests the module (the stage memo's base key) never
// holds the whole text. It returns the first write error.
func (m *Module) Fprint(w io.Writer) error {
	p := printer{w: w}
	p.linef(0, "module @%s {", m.Name)
	for _, f := range m.Funcs {
		p.fn(2, f)
	}
	p.linef(0, "}")
	return p.err
}

// printer emits the textual form line by line at a given indentation.
type printer struct {
	w   io.Writer
	buf []byte // the line being assembled, reused across lines
	err error  // the first write error; later lines are dropped
}

// linef writes one formatted line indented by indent spaces. Text with
// embedded newlines (a name containing one) is indented line by line, and
// an empty line carries no padding.
func (p *printer) linef(indent int, format string, args ...any) {
	if p.err != nil {
		return
	}
	text := fmt.Sprintf(format, args...)
	p.buf = p.buf[:0]
	for len(text) > 0 || len(p.buf) == 0 {
		line, rest, _ := strings.Cut(text, "\n")
		if line != "" {
			for i := 0; i < indent; i++ {
				p.buf = append(p.buf, ' ')
			}
			p.buf = append(p.buf, line...)
		}
		p.buf = append(p.buf, '\n')
		text = rest
	}
	_, p.err = p.w.Write(p.buf)
}

func (p *printer) fn(indent int, f *Func) {
	arrays := f.Arrays()
	parts := make([]string, len(arrays))
	for i, a := range arrays {
		parts[i] = "%" + a.String()
	}
	p.linef(indent, "func.func @%s(%s) {", f.Name, strings.Join(parts, ", "))
	for _, op := range f.Ops {
		p.op(indent+2, op)
	}
	p.linef(indent, "}")
}

func (p *printer) op(indent int, op Op) {
	switch x := op.(type) {
	case *SetUncoreCap:
		p.linef(indent, "%s {ghz = %.1f, for = %q}", x.OpName(), x.GHz, x.From)
	case *Nest:
		label := x.Label
		if label == "" {
			label = "nest"
		}
		from := ""
		if x.Origin() != "" {
			from = fmt.Sprintf(" (from %s)", x.Origin())
		}
		p.linef(indent, "// affine nest %q%s", label, from)
		p.loop(indent, x.Root)
	case *TorchSDPA:
		p.linef(indent, "%s(%s, %s, %s) -> %s %s", x.OpName(), x.Q.Name, x.K.Name, x.V.Name, x.Out.Name, torchShape(x.Out))
	case *TorchMatMul:
		p.linef(indent, "%s(%s, %s) -> %s %s", x.OpName(), x.A.Name, x.B.Name, x.Out.Name, torchShape(x.Out))
	case *TorchConv2D:
		p.linef(indent, "%s(%s, %s) -> %s %s", x.OpName(), x.Input.Name, x.Filter.Name, x.Out.Name, torchShape(x.Out))
	default:
		ops := op.Operands()
		names := make([]string, len(ops))
		for i, a := range ops {
			names[i] = a.Name
		}
		origin := ""
		if op.Origin() != "" {
			origin = fmt.Sprintf(" {origin = %q}", op.Origin())
		}
		p.linef(indent, "%s(%s)%s", op.OpName(), strings.Join(names, ", "), origin)
	}
}

func (p *printer) loop(indent int, l *Loop) {
	if l == nil {
		return
	}
	kw := "affine.for"
	if l.Parallel {
		kw = "affine.parallel"
	}
	p.linef(indent, "%s %%%s = %s to %s {", kw, l.IV, boundStr(l.Lo, "max"), boundStr(l.Hi, "min"))
	for _, node := range l.Body {
		switch x := node.(type) {
		case *Loop:
			p.loop(indent+2, x)
		case *Statement:
			p.statement(indent+2, x)
		case *CapNode:
			p.linef(indent+2, "polyufc.set_uncore_cap {ghz = %.1f}", x.Cap.GHz)
		}
	}
	p.linef(indent, "}")
}

func boundStr(bounds []Bound, combiner string) string {
	if len(bounds) == 1 {
		return bounds[0].String()
	}
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = b.String()
	}
	return combiner + "(" + strings.Join(parts, ", ") + ")"
}

func (p *printer) statement(indent int, s *Statement) {
	for _, a := range s.Accesses {
		if !a.Write {
			p.linef(indent, "%%v = affine.load %%%s[%s]", a.Array.Name, idxStr(a.Index))
		}
	}
	p.linef(indent, "// %s: %d flops", s.Name, s.Flops)
	for _, a := range s.Accesses {
		if a.Write {
			p.linef(indent, "affine.store %%v, %%%s[%s]", a.Array.Name, idxStr(a.Index))
		}
	}
}

func idxStr(idx []AffExpr) string {
	parts := make([]string, len(idx))
	for i, e := range idx {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
