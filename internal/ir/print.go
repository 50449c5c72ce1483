package ir

import (
	"bytes"
	"io"
	"strconv"
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
	p.s("module @").s(m.Name).s(" {").flush(0)
	for _, f := range m.Funcs {
		p.fn(2, f)
	}
	p.s("}").flush(0)
	return p.err
}

// printer emits the textual form line by line at a given indentation. A
// line's text is appended to line, with strconv rather than fmt, and flush
// writes it.
type printer struct {
	w    io.Writer
	line []byte // the text of the line being assembled
	buf  []byte // the line as written, indented; reused across lines
	err  error  // the first write error; later lines are dropped
}

func (p *printer) s(text string) *printer {
	p.line = append(p.line, text...)
	return p
}

// q appends text quoted as %q does.
func (p *printer) q(text string) *printer {
	p.line = strconv.AppendQuote(p.line, text)
	return p
}

func (p *printer) int(v int64) *printer {
	p.line = strconv.AppendInt(p.line, v, 10)
	return p
}

// ghz appends a frequency as %.1f does.
func (p *printer) ghz(v float64) *printer {
	p.line = strconv.AppendFloat(p.line, v, 'f', 1, 64)
	return p
}

// flush writes the assembled line indented by indent spaces. Text with
// embedded newlines (a name containing one) is indented line by line, and
// an empty line carries no padding.
func (p *printer) flush(indent int) {
	text := p.line
	p.line = p.line[:0]
	if p.err != nil {
		return
	}
	p.buf = p.buf[:0]
	for len(text) > 0 || len(p.buf) == 0 {
		line, rest, _ := bytes.Cut(text, []byte{'\n'})
		if len(line) > 0 {
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
	p.s("func.func @").s(f.Name).s("(")
	for i, a := range f.Arrays() {
		if i > 0 {
			p.s(", ")
		}
		p.line = a.appendTo(append(p.line, '%'))
	}
	p.s(") {").flush(indent)
	for _, op := range f.Ops {
		p.op(indent+2, op)
	}
	p.s("}").flush(indent)
}

func (p *printer) op(indent int, op Op) {
	switch x := op.(type) {
	case *SetUncoreCap:
		p.s(x.OpName()).s(" {ghz = ").ghz(x.GHz).s(", for = ").q(x.From).s("}")
	case *Nest:
		label := x.Label
		if label == "" {
			label = "nest"
		}
		p.s("// affine nest ").q(label)
		if x.Origin() != "" {
			p.s(" (from ").s(x.Origin()).s(")")
		}
		p.flush(indent)
		p.loop(indent, x.Root)
		return
	case *TorchSDPA:
		p.s(x.OpName()).s("(").s(x.Q.Name).s(", ").s(x.K.Name).s(", ").s(x.V.Name).s(") -> ")
		p.torchOut(x.Out)
	case *TorchMatMul:
		p.s(x.OpName()).s("(").s(x.A.Name).s(", ").s(x.B.Name).s(") -> ")
		p.torchOut(x.Out)
	case *TorchConv2D:
		p.s(x.OpName()).s("(").s(x.Input.Name).s(", ").s(x.Filter.Name).s(") -> ")
		p.torchOut(x.Out)
	default:
		p.s(op.OpName()).s("(")
		for i, a := range op.Operands() {
			if i > 0 {
				p.s(", ")
			}
			p.s(a.Name)
		}
		p.s(")")
		if op.Origin() != "" {
			p.s(" {origin = ").q(op.Origin()).s("}")
		}
	}
	p.flush(indent)
}

// torchOut appends a torch op's result: its name and its shape as %v
// prints the extents.
func (p *printer) torchOut(a *Array) {
	p.s(a.Name).s(" [")
	for i, d := range a.Dims {
		if i > 0 {
			p.s(" ")
		}
		p.int(d)
	}
	p.s("]")
}

func (p *printer) loop(indent int, l *Loop) {
	if l == nil {
		return
	}
	kw := "affine.for"
	if l.Parallel {
		kw = "affine.parallel"
	}
	p.s(kw).s(" %").s(l.IV).s(" = ")
	p.bounds(l.Lo, "max")
	p.s(" to ")
	p.bounds(l.Hi, "min")
	p.s(" {").flush(indent)
	for _, node := range l.Body {
		switch x := node.(type) {
		case *Loop:
			p.loop(indent+2, x)
		case *Statement:
			p.statement(indent+2, x)
		case *CapNode:
			p.s("polyufc.set_uncore_cap {ghz = ").ghz(x.Cap.GHz).s("}").flush(indent + 2)
		}
	}
	p.s("}").flush(indent)
}

// bounds appends a bound list: its one bound, or combiner(b1, b2, ...).
func (p *printer) bounds(bounds []Bound, combiner string) {
	if len(bounds) == 1 {
		p.line = bounds[0].appendTo(p.line)
		return
	}
	p.s(combiner).s("(")
	for i, b := range bounds {
		if i > 0 {
			p.s(", ")
		}
		p.line = b.appendTo(p.line)
	}
	p.s(")")
}

func (p *printer) statement(indent int, s *Statement) {
	for _, a := range s.Accesses {
		if !a.Write {
			p.s("%v = affine.load %").s(a.Array.Name)
			p.index(a.Index)
			p.flush(indent)
		}
	}
	p.s("// ").s(s.Name).s(": ").int(s.Flops).s(" flops").flush(indent)
	for _, a := range s.Accesses {
		if a.Write {
			p.s("affine.store %v, %").s(a.Array.Name)
			p.index(a.Index)
			p.flush(indent)
		}
	}
}

// index appends an access's index list in brackets.
func (p *printer) index(idx []AffExpr) {
	p.s("[")
	for i, e := range idx {
		if i > 0 {
			p.s(", ")
		}
		p.line = e.appendTo(p.line)
	}
	p.s("]")
}
