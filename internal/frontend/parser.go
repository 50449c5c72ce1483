package frontend

import (
	"fmt"
	"strconv"

	"polyufc/internal/ir"
)

// Parse compiles source text into an affine-level module named name. Every
// top-level loop becomes one affine nest.
func Parse(name, src string) (*ir.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, params: map[string]int64{}, arrays: map[string]*ir.Array{}}
	mod, f := ir.NewModule(name)
	for !p.atEOF() {
		switch {
		case p.peekIdent("param"):
			if err := p.parseParam(); err != nil {
				return nil, err
			}
		case p.peekIdent("array"):
			if err := p.parseArray(); err != nil {
				return nil, err
			}
		case p.peekIdent("for") || p.peekIdent("parallel"):
			loop, err := p.parseLoop(nil)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("%s_nest%d", name, len(f.Ops))
			f.Ops = append(f.Ops, &ir.Nest{Label: label, Root: loop})
		default:
			t := p.peek()
			return nil, fmt.Errorf("frontend: line %d: expected param, array or for, got %q", t.line, t.text)
		}
	}
	if len(f.Ops) == 0 {
		return nil, fmt.Errorf("frontend: no loop nests in %s", name)
	}
	return mod, nil
}

type parser struct {
	toks   []token
	pos    int
	params map[string]int64
	arrays map[string]*ir.Array
	stmtID int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) peekIdent(s string) bool {
	t := p.peek()
	return t.kind == tokIdent && t.text == s
}

func (p *parser) peekSymbol(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

func (p *parser) expectSymbol(s string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != s {
		return fmt.Errorf("frontend: line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.kind != tokIdent {
		return t, fmt.Errorf("frontend: line %d: expected identifier, got %q", t.line, t.text)
	}
	return t, nil
}

// parseParam handles: param N = <const affine expr>.
func (p *parser) parseParam() error {
	p.next() // param
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("="); err != nil {
		return err
	}
	e, err := p.parseAffExpr(nil)
	if err != nil {
		return err
	}
	if !e.IsConst() {
		return fmt.Errorf("frontend: line %d: parameter %s must be constant", name.line, name.text)
	}
	p.params[name.text] = e.Const
	return nil
}

// parseArray handles: array A[e]...[e] [: type].
func (p *parser) parseArray() error {
	p.next() // array
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.arrays[name.text]; dup {
		return fmt.Errorf("frontend: line %d: array %s redeclared", name.line, name.text)
	}
	var dims []int64
	for p.peekSymbol("[") {
		p.next()
		e, err := p.parseAffExpr(nil)
		if err != nil {
			return err
		}
		if !e.IsConst() {
			return fmt.Errorf("frontend: line %d: array extent must be constant", name.line)
		}
		if e.Const <= 0 {
			return fmt.Errorf("frontend: line %d: non-positive extent %d", name.line, e.Const)
		}
		dims = append(dims, e.Const)
		if err := p.expectSymbol("]"); err != nil {
			return err
		}
	}
	if len(dims) == 0 {
		dims = []int64{1} // scalar
	}
	elem := int64(8)
	if p.peekSymbol(":") {
		p.next()
		ty, err := p.expectIdent()
		if err != nil {
			return err
		}
		switch ty.text {
		case "f64", "i64":
			elem = 8
		case "f32", "i32":
			elem = 4
		case "f16", "i16":
			elem = 2
		case "i8":
			elem = 1
		default:
			return fmt.Errorf("frontend: line %d: unknown element type %q", ty.line, ty.text)
		}
	}
	p.arrays[name.text] = ir.NewArray(name.text, elem, dims...)
	return nil
}

// parseLoop handles: [parallel] for iv = <bounds> to <bounds> { body }.
// The parallel keyword is the user's OpenMP-pragma analog; Pluto's own
// analysis may additionally mark loops it proves parallel.
func (p *parser) parseLoop(outer []string) (*ir.Loop, error) {
	parallel := false
	if p.peekIdent("parallel") {
		p.next()
		parallel = true
		if !p.peekIdent("for") {
			t := p.peek()
			return nil, fmt.Errorf("frontend: line %d: expected 'for' after 'parallel'", t.line)
		}
	}
	p.next() // for
	iv, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	for _, o := range outer {
		if o == iv.text {
			return nil, fmt.Errorf("frontend: line %d: loop variable %s shadows an outer loop", iv.line, iv.text)
		}
	}
	if _, isParam := p.params[iv.text]; isParam {
		return nil, fmt.Errorf("frontend: line %d: loop variable %s shadows a parameter", iv.line, iv.text)
	}
	if err := p.expectSymbol("="); err != nil {
		return nil, err
	}
	ivs := append(append([]string(nil), outer...), iv.text)
	lo, err := p.parseBounds(outer, true)
	if err != nil {
		return nil, err
	}
	if t := p.next(); !(t.kind == tokIdent && t.text == "to") {
		return nil, fmt.Errorf("frontend: line %d: expected 'to', got %q", t.line, t.text)
	}
	hi, err := p.parseBounds(outer, false)
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("{"); err != nil {
		return nil, err
	}
	loop := &ir.Loop{IV: iv.text, Lo: lo, Hi: hi, Parallel: parallel}
	for !p.peekSymbol("}") {
		if p.atEOF() {
			return nil, fmt.Errorf("frontend: unexpected end of input in loop %s", iv.text)
		}
		if p.peekIdent("for") || p.peekIdent("parallel") {
			sub, err := p.parseLoop(ivs)
			if err != nil {
				return nil, err
			}
			loop.Body = append(loop.Body, sub)
			continue
		}
		st, err := p.parseStatement(ivs)
		if err != nil {
			return nil, err
		}
		loop.Body = append(loop.Body, st)
	}
	p.next() // }
	return loop, nil
}

// parseBounds handles a single affine bound, or max(...)/min(...) lists
// (max for lower bounds, min for upper), each optionally followed by
// "/ c" for floor/ceil division.
func (p *parser) parseBounds(ivs []string, lower bool) ([]ir.Bound, error) {
	kw := "min"
	if lower {
		kw = "max"
	}
	var exprs []ir.AffExpr
	if p.peekIdent(kw) {
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseAffExpr(ivs)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			if p.peekSymbol(",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	} else {
		e, err := p.parseAffExpr(ivs)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
	}
	div := int64(1)
	if p.peekSymbol("/") {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, fmt.Errorf("frontend: line %d: bound divisor must be a constant", t.line)
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("frontend: line %d: bad divisor %q", t.line, t.text)
		}
		div = v
	}
	out := make([]ir.Bound, len(exprs))
	for i, e := range exprs {
		out[i] = ir.BDiv(e, div)
	}
	return out, nil
}

// parseStatement handles: access (=|+=|-=|*=|/=) expr ;
func (p *parser) parseStatement(ivs []string) (*ir.Statement, error) {
	lhs, err := p.parseAccess(ivs)
	if err != nil {
		return nil, err
	}
	op := p.next()
	if op.kind != tokSymbol {
		return nil, fmt.Errorf("frontend: line %d: expected assignment, got %q", op.line, op.text)
	}
	var compound bool
	switch op.text {
	case "=":
	case "+=", "-=", "*=", "/=":
		compound = true
	default:
		return nil, fmt.Errorf("frontend: line %d: unexpected operator %q", op.line, op.text)
	}
	rhs, err := p.parseExpr(ivs)
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, err
	}
	p.stmtID++
	st := &ir.Statement{Name: fmt.Sprintf("S%d", p.stmtID-1)}
	// Reads: every access in the RHS, plus the LHS for compound updates.
	st.Accesses = append(st.Accesses, rhs.accesses...)
	flops := rhs.flops
	if compound {
		st.Accesses = append(st.Accesses, ir.Access{Array: lhs.Array, Index: lhs.Index})
		flops++
	}
	st.Flops = flops
	write := lhs
	write.Write = true
	st.Accesses = append(st.Accesses, write)
	return st, nil
}

// parseAccess handles: ident [ e ] [ e ] ...; scalars take index [0].
func (p *parser) parseAccess(ivs []string) (ir.Access, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ir.Access{}, err
	}
	arr, ok := p.arrays[name.text]
	if !ok {
		return ir.Access{}, fmt.Errorf("frontend: line %d: unknown array %q", name.line, name.text)
	}
	var idx []ir.AffExpr
	for p.peekSymbol("[") {
		p.next()
		e, err := p.parseAffExpr(ivs)
		if err != nil {
			return ir.Access{}, err
		}
		idx = append(idx, e)
		if err := p.expectSymbol("]"); err != nil {
			return ir.Access{}, err
		}
	}
	if len(idx) == 0 {
		idx = []ir.AffExpr{ir.AffConst(0)} // scalar
	}
	if len(idx) != len(arr.Dims) {
		return ir.Access{}, fmt.Errorf("frontend: line %d: %s has %d dims, indexed with %d",
			name.line, name.text, len(arr.Dims), len(idx))
	}
	return ir.Access{Array: arr, Index: idx}, nil
}

// rhsExpr is the result of parsing a right-hand-side expression: the
// accesses it reads and its operator count (unitary flop model).
type rhsExpr struct {
	accesses []ir.Access
	flops    int64
}

func (p *parser) parseExpr(ivs []string) (rhsExpr, error) {
	e, err := p.parseTerm(ivs)
	if err != nil {
		return e, err
	}
	for p.peekSymbol("+") || p.peekSymbol("-") {
		p.next()
		r, err := p.parseTerm(ivs)
		if err != nil {
			return e, err
		}
		e.accesses = append(e.accesses, r.accesses...)
		e.flops += r.flops + 1
	}
	return e, nil
}

func (p *parser) parseTerm(ivs []string) (rhsExpr, error) {
	e, err := p.parseFactor(ivs)
	if err != nil {
		return e, err
	}
	for p.peekSymbol("*") || p.peekSymbol("/") {
		p.next()
		r, err := p.parseFactor(ivs)
		if err != nil {
			return e, err
		}
		e.accesses = append(e.accesses, r.accesses...)
		e.flops += r.flops + 1
	}
	return e, nil
}

func (p *parser) parseFactor(ivs []string) (rhsExpr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		return rhsExpr{}, nil
	case t.kind == tokSymbol && t.text == "-":
		p.next()
		e, err := p.parseFactor(ivs)
		e.flops++ // negation
		return e, err
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e, err := p.parseExpr(ivs)
		if err != nil {
			return e, err
		}
		return e, p.expectSymbol(")")
	case t.kind == tokIdent:
		// Function call (sqrt, exp, ...) counts one op; otherwise an
		// array access or an induction variable used as a value.
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			p.next()
			p.next()
			e, err := p.parseExpr(ivs)
			if err != nil {
				return e, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return e, err
			}
			e.flops++
			return e, nil
		}
		if _, isArr := p.arrays[t.text]; isArr {
			acc, err := p.parseAccess(ivs)
			if err != nil {
				return rhsExpr{}, err
			}
			return rhsExpr{accesses: []ir.Access{acc}}, nil
		}
		// IVs and parameters used as values cost nothing and touch no
		// memory.
		if contains(ivs, t.text) {
			p.next()
			return rhsExpr{}, nil
		}
		if _, isParam := p.params[t.text]; isParam {
			p.next()
			return rhsExpr{}, nil
		}
		return rhsExpr{}, fmt.Errorf("frontend: line %d: unknown identifier %q", t.line, t.text)
	}
	return rhsExpr{}, fmt.Errorf("frontend: line %d: unexpected token %q in expression", t.line, t.text)
}

// parseAffExpr parses an affine expression over the given IVs and the
// declared parameters: sums and differences of terms c, iv, c*iv, param.
func (p *parser) parseAffExpr(ivs []string) (ir.AffExpr, error) {
	e, err := p.parseAffTerm(ivs)
	if err != nil {
		return e, err
	}
	for p.peekSymbol("+") || p.peekSymbol("-") {
		neg := p.next().text == "-"
		r, err := p.parseAffTerm(ivs)
		if err != nil {
			return e, err
		}
		if neg {
			r = r.Scale(-1)
		}
		e = e.Add(r)
	}
	return e, nil
}

func (p *parser) parseAffTerm(ivs []string) (ir.AffExpr, error) {
	e, err := p.parseAffAtom(ivs)
	if err != nil {
		return e, err
	}
	for p.peekSymbol("*") {
		p.next()
		r, err := p.parseAffAtom(ivs)
		if err != nil {
			return e, err
		}
		// Affine: one side must be constant.
		switch {
		case e.IsConst():
			e = r.Scale(e.Const)
		case r.IsConst():
			e = e.Scale(r.Const)
		default:
			return e, fmt.Errorf("frontend: non-affine product near line %d", p.peek().line)
		}
	}
	return e, nil
}

func (p *parser) parseAffAtom(ivs []string) (ir.AffExpr, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return ir.AffExpr{}, fmt.Errorf("frontend: line %d: integer expected, got %q", t.line, t.text)
		}
		return ir.AffConst(v), nil
	case t.kind == tokSymbol && t.text == "-":
		e, err := p.parseAffAtom(ivs)
		return e.Scale(-1), err
	case t.kind == tokSymbol && t.text == "(":
		e, err := p.parseAffExpr(ivs)
		if err != nil {
			return e, err
		}
		return e, p.expectSymbol(")")
	case t.kind == tokIdent:
		if v, ok := p.params[t.text]; ok {
			return ir.AffConst(v), nil
		}
		if contains(ivs, t.text) {
			return ir.AffVar(t.text), nil
		}
		return ir.AffExpr{}, fmt.Errorf("frontend: line %d: unknown symbol %q in affine expression", t.line, t.text)
	}
	return ir.AffExpr{}, fmt.Errorf("frontend: line %d: unexpected %q in affine expression", t.line, t.text)
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
