package isl

import (
	"fmt"
	"strings"

	"polyufc/internal/checked"
	"polyufc/internal/poly"
)

// Piece is one chamber of a parametric count: Count gives the number of
// points as a polynomial in the set's parameters, valid where every Guard
// (a constraint over the parameters) holds. Outside all pieces' guards the
// count is zero. This is the piecewise (quasi-)polynomial form barvinok
// produces, restricted to the polynomial class PolyUFC's kernels need.
type Piece struct {
	Count  poly.Poly
	Guards []ConstraintView
}

// Eval evaluates the piece at concrete parameter values: its count where
// every guard holds, and zero elsewhere. ok is false when the count, or a
// guard's value, does not fit an int64.
func (p Piece) Eval(params []int64) (n int64, ok bool) {
	for _, g := range p.Guards {
		v := g.Const
		for i, c := range g.Coef {
			if v, ok = mulAdd(v, c, params[i]); !ok {
				return 0, false
			}
		}
		if (g.Kind == EQ && v != 0) || (g.Kind == GE && v < 0) {
			return 0, true
		}
	}
	return p.Count.EvalInt64(params)
}

// Format renders the piece with the given parameter names.
func (p Piece) Format(params []string) string {
	var sb strings.Builder
	sb.WriteString(p.Count.Format(params))
	if len(p.Guards) > 0 {
		sb.WriteString("  if ")
		var parts []string
		for _, g := range p.Guards {
			var terms []string
			for i, c := range g.Coef {
				switch c {
				case 0:
				case 1:
					terms = append(terms, params[i])
				case -1:
					terms = append(terms, "-"+params[i])
				default:
					terms = append(terms, fmt.Sprintf("%d*%s", c, params[i]))
				}
			}
			if g.Const != 0 || len(terms) == 0 {
				terms = append(terms, fmt.Sprint(g.Const))
			}
			parts = append(parts, strings.Join(terms, " + ")+" "+g.Kind.String()+" 0")
		}
		sb.WriteString(strings.Join(parts, " and "))
	}
	return sb.String()
}

// CountSymbolic counts the basic set symbolically in its parameters,
// returning chamber pieces (polynomial + parameter guards). It requires an
// existential-free basic set in the quasi-linear class (unit or divisible
// coefficients on each eliminated dimension). The pieces partition the
// parameter space region where the set is non-empty.
func (b BasicSet) CountSymbolic() ([]Piece, error) {
	if b.markedEmpty {
		return nil, nil
	}
	if b.NExist > 0 {
		elim, exact := b.EliminateExists()
		if !exact {
			return nil, ErrNotCountable
		}
		b = elim
	}
	np := b.Sp.NumParams()
	nd := b.Sp.NumVars()
	nv := np + nd
	var out []Piece
	budget := maxCountNodes
	err := countRec(b.cons, nv, np, nd, poly.ConstInt(nv, 1), 0, &budget, func(rows []con, body poly.Poly) error {
		// Compress the polynomial and the guards to the parameter columns.
		cp := body.Resize(np)
		if cp.IsZero() {
			return nil
		}
		var guards []ConstraintView
		for _, g := range rows {
			if !isConstRow(g.coef[np:]) {
				return fmt.Errorf("isl: internal: guard references a dimension")
			}
			gv := ConstraintView{Kind: g.kind, Coef: append([]int64(nil), g.coef[:np]...), Const: g.c}
			if isConstRow(gv.Coef) {
				if (gv.Kind == EQ && gv.Const != 0) || (gv.Kind == GE && gv.Const < 0) {
					return nil // contradictory: the chamber is empty
				}
				continue // trivially true
			}
			guards = append(guards, gv)
		}
		out = append(out, Piece{Count: cp, Guards: guards})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func isConstRow(coef []int64) bool {
	for _, c := range coef {
		if c != 0 {
			return false
		}
	}
	return true
}

// EvalPieces sums the pieces at concrete parameter values — chambers are
// disjoint, so at most one applies per basic set, but callers may hold
// pieces from several basic sets. ok is false when the sum does not fit an
// int64.
func EvalPieces(pieces []Piece, params []int64) (n int64, ok bool) {
	for _, p := range pieces {
		v, ok := p.Eval(params)
		if ok {
			n, ok = checked.Add(n, v)
		}
		if !ok {
			return 0, false
		}
	}
	return n, true
}
