package isl

import (
	"errors"
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
	budget := maxCountNodes
	pieces, err := countSymRec(b.cons, nv, np, nd, poly.ConstInt(nv, 1), 0, &budget)
	if err != nil {
		return nil, err
	}
	// Compress polynomials and guards to the parameter columns.
	out := make([]Piece, 0, len(pieces))
	for _, pc := range pieces {
		cp, err := compressToParams(pc.body, np, nv)
		if err != nil {
			return nil, err
		}
		var guards []ConstraintView
		contradictory := false
		for _, g := range pc.guards {
			for i := np; i < nv; i++ {
				if g.coef[i] != 0 {
					return nil, fmt.Errorf("isl: internal: guard references a dimension")
				}
			}
			gv := ConstraintView{Kind: g.kind, Coef: append([]int64(nil), g.coef[:np]...), Const: g.c}
			if isConstRow(gv.Coef) {
				if (gv.Kind == EQ && gv.Const != 0) || (gv.Kind == GE && gv.Const < 0) {
					contradictory = true
					break
				}
				continue // trivially true
			}
			guards = append(guards, gv)
		}
		if contradictory || cp.IsZero() {
			continue
		}
		out = append(out, Piece{Count: cp, Guards: guards})
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
	out := poly.New(np)
	// Rebuild by evaluating the dim columns at 0: substitute each with 0.
	q := p
	for i := np; i < nv; i++ {
		q = q.SubstPoly(i, poly.ConstInt(nv, 0))
	}
	// Now transfer coefficients.
	out = transferPoly(q, np, nv)
	return out, nil
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

// symPiece is an internal chamber during recursion.
type symPiece struct {
	body   poly.Poly
	guards []con
}

// countSymRec mirrors countRec but keeps parameter columns symbolic and
// returns chamber pieces instead of a number.
func countSymRec(rows []con, nv, np, remaining int, body poly.Poly, depth int, budget *int) ([]symPiece, error) {
	if depth > maxChamberDepth {
		return nil, ErrNotCountable
	}
	*budget--
	if *budget <= 0 {
		return nil, ErrNotCountable
	}
	if remaining == 0 {
		return []symPiece{{body: body, guards: rows}}, nil
	}
	d := np + remaining - 1

	// Equality substitution when possible.
	for i, r := range rows {
		if r.coef[d] == 0 || r.kind != EQ {
			continue
		}
		a := r.coef[d]
		if a == 1 || a == -1 {
			coef := make([]int64, nv)
			c, _ := makeBound(r, d, a > 0, coef)
			nrows := substituteRows(rows, i, d, a)
			nbody := body.SubstPoly(d, affinePoly(nv, coef, c))
			return countSymRec(nrows, nv, np, remaining-1, nbody, depth, budget)
		}
		return nil, ErrNotCountable
	}

	lowers, uppers, rest, ok := splitBounds(rows, d, nv)
	if !ok {
		return nil, ErrNotCountable
	}
	if len(lowers) == 0 || len(uppers) == 0 {
		return nil, ErrUnbounded
	}
	f := fmPool.Get().(*fmScratch)
	lowers = f.pruneDominated(lowers, rest, nv, true)
	uppers = f.pruneDominated(uppers, rest, nv, false)
	fmPool.Put(f)
	setPolys(lowers, nv)
	setPolys(uppers, nv)

	var out []symPiece
	for li, L := range lowers {
		for ui, U := range uppers {
			chamber := chamberRows(lowers, uppers, li, ui, rest, nv)
			nbody := poly.SumVar(body, d, L.poly, U.poly)
			pieces, err := countSymRec(chamber, nv, np, remaining-1, nbody, depth+1, budget)
			if err != nil {
				return nil, err
			}
			out = append(out, pieces...)
		}
	}
	return out, nil
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

// ErrNoParams is returned by CountSymbolic helpers that need parameters.
var ErrNoParams = errors.New("isl: set has no parameters")
