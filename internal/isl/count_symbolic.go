package isl

import (
	"fmt"
	"math/big"
	"strings"

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

// Eval evaluates the piece at concrete parameter values; ok reports
// whether the guards hold there.
func (p Piece) Eval(params []int64) (*big.Rat, bool) {
	for _, g := range p.Guards {
		v := g.Const
		for i, c := range g.Coef {
			v += c * params[i]
		}
		if (g.Kind == EQ && v != 0) || (g.Kind == GE && v < 0) {
			return nil, false
		}
	}
	return p.Count.EvalInt(params), true
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
		cp, err := compressToParams(body, np, nv)
		if err != nil || cp.IsZero() {
			return err
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

// compressToParams re-expresses a polynomial over [params|dims] columns in
// the parameter space, verifying no dimension variable survived.
func compressToParams(p poly.Poly, np, nv int) (poly.Poly, error) {
	for i := np; i < nv; i++ {
		if p.DegreeOf(i) > 0 {
			return poly.Poly{}, fmt.Errorf("isl: internal: dimension survived symbolic count")
		}
	}
	return transferPoly(p, np, nv), nil
}

// transferPoly maps a polynomial using only the first np columns of an
// nv-column space into an np-column space.
func transferPoly(p poly.Poly, np, nv int) poly.Poly {
	out := poly.New(np)
	// Enumerate monomials by evaluating coefficients: use Coeff via
	// exponent enumeration up to the polynomial's degree in each var.
	degs := make([]int, np)
	for i := 0; i < np; i++ {
		degs[i] = p.DegreeOf(i)
	}
	var rec func(i int, exps []int)
	rec = func(i int, exps []int) {
		if i == np {
			full := make([]int, nv)
			copy(full, exps)
			c := p.Coeff(full)
			if c.Sign() != 0 {
				mono := poly.Const(np, c)
				for v, e := range exps {
					if e > 0 {
						mono = mono.Mul(poly.Var(np, v).Pow(e))
					}
				}
				out = out.Add(mono)
			}
			return
		}
		for e := 0; e <= degs[i]; e++ {
			exps[i] = e
			rec(i+1, exps)
		}
		exps[i] = 0
	}
	rec(0, make([]int, np))
	return out
}

// EvalPieces sums the applicable pieces at concrete parameter values —
// chambers are disjoint, so at most one applies per basic set, but callers
// may hold pieces from several basic sets.
func EvalPieces(pieces []Piece, params []int64) *big.Rat {
	total := new(big.Rat)
	for _, p := range pieces {
		if v, ok := p.Eval(params); ok {
			total.Add(total, v)
		}
	}
	return total
}
