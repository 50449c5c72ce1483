// Package isl is a small integer set library for the polyhedral model,
// standing in for isl (Verdoolaege, ICMS 2010) in the PolyUFC flow. It
// provides integer sets and relations bounded by affine constraints, the
// operations the PolyUFC analyses need (intersection, union, difference,
// projection, composition, inversion, lexicographic order, lexmin), and
// exact point counting for the quasi-linear class the paper restricts
// itself to (rectangular domains, constant-size tiling, affine accesses).
//
// Existentially quantified dimensions model integer division and modulo:
// line = floor(a/l) is expressed as l*line <= a <= l*line + l - 1.
package isl

import (
	"fmt"
	"slices"
	"strings"
)

// Space describes the named dimensions of a set or relation. A set has only
// Out dimensions; a relation (map) additionally has In dimensions. Params
// are symbolic constants shared by all dimensions.
type Space struct {
	Params []string
	In     []string
	Out    []string
}

// NewSetSpace returns a set space with the given parameters and dimensions.
func NewSetSpace(params, dims []string) Space {
	return Space{Params: cloneStrings(params), Out: cloneStrings(dims)}
}

// NewMapSpace returns a relation space with the given parameters, input
// (domain) dimensions and output (range) dimensions.
func NewMapSpace(params, in, out []string) Space {
	return Space{Params: cloneStrings(params), In: cloneStrings(in), Out: cloneStrings(out)}
}

func cloneStrings(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return append([]string(nil), s...)
}

// NumParams returns the number of parameters.
func (s Space) NumParams() int { return len(s.Params) }

// NumIn returns the number of input dimensions.
func (s Space) NumIn() int { return len(s.In) }

// NumOut returns the number of output dimensions.
func (s Space) NumOut() int { return len(s.Out) }

// NumVars returns the total number of set/relation dimensions (in + out).
func (s Space) NumVars() int { return len(s.In) + len(s.Out) }

// NumCols returns the number of coefficient columns (params + vars),
// excluding existentials and the constant.
func (s Space) NumCols() int { return s.NumParams() + s.NumVars() }

// IsMap reports whether the space has input dimensions.
func (s Space) IsMap() bool { return len(s.In) > 0 }

// VarIndex returns the column index (relative to the first variable column)
// of the named dimension, searching inputs then outputs, or -1.
func (s Space) VarIndex(name string) int {
	for i, v := range s.In {
		if v == name {
			return i
		}
	}
	for i, v := range s.Out {
		if v == name {
			return len(s.In) + i
		}
	}
	return -1
}

// VarName returns the name of variable i (inputs first, then outputs).
func (s Space) VarName(i int) string {
	if i < len(s.In) {
		return s.In[i]
	}
	return s.Out[i-len(s.In)]
}

// withoutVar returns the space with variable i (0-based across in+out
// dims) removed.
func (s Space) withoutVar(i int) Space {
	r := Space{Params: s.Params, In: s.In, Out: s.Out}
	if i < len(s.In) {
		r.In = slices.Delete(slices.Clone(s.In), i, i+1)
	} else {
		j := i - len(s.In)
		r.Out = slices.Delete(slices.Clone(s.Out), j, j+1)
	}
	return r
}

// Equal reports whether two spaces have identical dimension lists.
func (s Space) Equal(t Space) bool {
	return eqStrings(s.Params, t.Params) && eqStrings(s.In, t.In) && eqStrings(s.Out, t.Out)
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s Space) String() string {
	var sb strings.Builder
	if len(s.Params) > 0 {
		sb.WriteString("[" + strings.Join(s.Params, ",") + "] -> ")
	}
	if s.IsMap() {
		fmt.Fprintf(&sb, "{[%s] -> [%s]}", strings.Join(s.In, ","), strings.Join(s.Out, ","))
	} else {
		fmt.Fprintf(&sb, "{[%s]}", strings.Join(s.Out, ","))
	}
	return sb.String()
}

// LinExpr is an affine expression over a space's parameters and variables:
// sum(ParamCoef[i] * param_i) + sum(VarCoef[j] * var_j) + Const.
// LinExpr does not reference existential dimensions; constraints gain
// existential columns only when added to a BasicSet.
type LinExpr struct {
	ParamCoef []int64
	VarCoef   []int64
	Const     int64
}

// NewLinExpr returns the zero expression for a space.
func (s Space) NewLinExpr() LinExpr {
	return LinExpr{
		ParamCoef: make([]int64, s.NumParams()),
		VarCoef:   make([]int64, s.NumVars()),
	}
}

// ConstExpr returns the constant expression c for a space.
func (s Space) ConstExpr(c int64) LinExpr {
	e := s.NewLinExpr()
	e.Const = c
	return e
}

// VarExpr returns the expression consisting of variable i.
func (s Space) VarExpr(i int) LinExpr {
	e := s.NewLinExpr()
	e.VarCoef[i] = 1
	return e
}

// ParamExpr returns the expression consisting of parameter i.
func (s Space) ParamExpr(i int) LinExpr {
	e := s.NewLinExpr()
	e.ParamCoef[i] = 1
	return e
}

// Clone returns a deep copy of e.
func (e LinExpr) Clone() LinExpr {
	return LinExpr{
		ParamCoef: append([]int64(nil), e.ParamCoef...),
		VarCoef:   append([]int64(nil), e.VarCoef...),
		Const:     e.Const,
	}
}

// Add returns e + f.
func (e LinExpr) Add(f LinExpr) LinExpr {
	g := e.Clone()
	for i := range f.ParamCoef {
		g.ParamCoef[i] += f.ParamCoef[i]
	}
	for i := range f.VarCoef {
		g.VarCoef[i] += f.VarCoef[i]
	}
	g.Const += f.Const
	return g
}

// Sub returns e - f.
func (e LinExpr) Sub(f LinExpr) LinExpr { return e.Add(f.Neg()) }

// Neg returns -e.
func (e LinExpr) Neg() LinExpr { return e.Scale(-1) }

// Scale returns c * e.
func (e LinExpr) Scale(c int64) LinExpr {
	g := e.Clone()
	for i := range g.ParamCoef {
		g.ParamCoef[i] *= c
	}
	for i := range g.VarCoef {
		g.VarCoef[i] *= c
	}
	g.Const *= c
	return g
}

// AddConst returns e + c.
func (e LinExpr) AddConst(c int64) LinExpr {
	g := e.Clone()
	g.Const += c
	return g
}

// IsConst reports whether e has no parameter or variable terms.
func (e LinExpr) IsConst() bool {
	for _, c := range e.ParamCoef {
		if c != 0 {
			return false
		}
	}
	for _, c := range e.VarCoef {
		if c != 0 {
			return false
		}
	}
	return true
}

// Eval evaluates e at the given parameter and variable values.
func (e LinExpr) Eval(params, vars []int64) int64 {
	v := e.Const
	for i, c := range e.ParamCoef {
		v += c * params[i]
	}
	for i, c := range e.VarCoef {
		v += c * vars[i]
	}
	return v
}

// Format renders e using the space's dimension names.
func (e LinExpr) Format(s Space) string {
	var parts []string
	add := func(c int64, name string) {
		switch c {
		case 0:
		case 1:
			parts = append(parts, name)
		case -1:
			parts = append(parts, "-"+name)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, name))
		}
	}
	for i, c := range e.ParamCoef {
		add(c, s.Params[i])
	}
	for i, c := range e.VarCoef {
		add(c, s.VarName(i))
	}
	if e.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", e.Const))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
}
