package isl

import (
	"errors"
	"fmt"
	"math"

	"polyufc/internal/checked"
	"polyufc/internal/poly"
)

// ErrNotCountable is returned when symbolic counting does not support the
// set's constraint structure (the caller may fall back to enumeration).
var ErrNotCountable = errors.New("isl: set outside the symbolically countable class")

// Count returns the exact number of integer points in the instantiated
// (parameter-free) set. Basic sets are made disjoint before counting so the
// union cardinality is exact. Symbolic Faulhaber summation is used for the
// loop-nest-form class (including constant-size tiled domains); basic sets
// outside that class, or whose count overflows a machine word on the way,
// fall back to bounded enumeration with the given point budget.
func (s Set) Count(enumLimit int) (int64, error) {
	if s.Sp.NumParams() != 0 {
		return 0, errors.New("isl: Count requires instantiated parameters")
	}
	return s.Coalesce().countCoalesced(enumLimit, nil)
}

// countCoalesced is Count on a parameter-free set whose basic sets are
// already deduplicated. blocks, when not nil, remembers the count of every
// independent variable block counted on the way (see countBlocks).
func (s Set) countCoalesced(enumLimit int, blocks map[string]int64) (int64, error) {
	var total int64
	// Disjointify: piece_i = basic_i minus basics already counted.
	var counted []BasicSet
	for _, b := range s.Basics {
		piece := FromBasic(b)
		if len(counted) > 0 {
			prior := Set{Sp: s.Sp, Basics: counted}
			var exact bool
			piece, exact = piece.Subtract(prior)
			if !exact {
				// Projection during subtraction lost precision; count the
				// whole union by enumeration instead.
				return s.CountEnumerate(enumLimit)
			}
		}
		for _, pb := range piece.Basics {
			c, err := pb.count(enumLimit, blocks)
			if err != nil {
				return 0, err
			}
			var ok bool
			if total, ok = checked.Add(total, c); !ok {
				return 0, errors.New("isl: count does not fit int64")
			}
		}
		counted = append(counted, b)
	}
	return total, nil
}

// Count returns the number of integer points in the instantiated basic set,
// using symbolic summation where possible and bounded enumeration
// otherwise.
func (b BasicSet) Count(enumLimit int) (int64, error) { return b.count(enumLimit, nil) }

// count is Count with an optional memo of block counts (see countBlocks).
func (b BasicSet) count(enumLimit int, blocks map[string]int64) (int64, error) {
	if b.markedEmpty {
		return 0, nil
	}
	if b.Sp.NumParams() != 0 {
		return 0, errors.New("isl: Count requires instantiated parameters")
	}
	work := b
	if work.NExist > 0 {
		elim, exact := work.EliminateExists()
		if !exact {
			return FromBasic(b).CountEnumerate(enumLimit)
		}
		work = elim
	}
	n, err := countBlocks(work, blocks)
	if errors.Is(err, ErrNotCountable) {
		return FromBasic(b).CountEnumerate(enumLimit)
	}
	return n, err
}

// countBlocks counts a parameter-free, existential-free basic set as the
// product of its independent variable blocks (splitBlocks): the set is
// the Cartesian product of its blocks' sets. A Pluto-tiled rectangle
// (it, jt, i, j) splits into {it, i} and {jt, j}; counted whole, its
// chambers would multiply across the dimensions and every polynomial would
// carry all of them. Each block is counted by countSymbolic on its own
// columns — through blocks, when not nil, keyed by the block's canonical
// constraint key, since the same blocks recur across the prefix
// projections of a nest's statements. A failing constant row or an empty
// block makes the count 0; otherwise the first block's error is returned,
// and a product past int64 is ErrNotCountable, on which the caller
// enumerates the whole set, as it does for a block outside the countable
// class. A set of one block is counted as it is.
func countBlocks(b BasicSet, blocks map[string]int64) (int64, error) {
	parts, empty := splitBlocks(b)
	if empty {
		return 0, nil
	}
	if parts == nil {
		return countSymbolic(b)
	}
	// An empty block empties the set whatever the other blocks hold, so it
	// wins over their errors and over the product's overflow.
	total, ok := int64(1), true
	var firstErr error
	var key []byte
	for _, p := range parts {
		n, hit := int64(0), false
		if blocks != nil {
			key = p.appendKey(key[:0])
			n, hit = blocks[string(key)]
		}
		if !hit {
			var err error
			if n, err = countSymbolic(p); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if blocks != nil {
				blocks[string(key)] = n
			}
		}
		if n == 0 {
			return 0, nil
		}
		if ok {
			total, ok = checked.Mul(total, n)
		}
	}
	if firstErr != nil {
		return 0, firstErr
	}
	if !ok {
		return 0, ErrNotCountable
	}
	return total, nil
}

// splitBlocks partitions the variables of a parameter-free basic set into
// independent blocks — two variables share a block when some row mentions
// both (union-find over each row's non-zero columns) — and returns each
// block as a basic set over its own variables, in their order, the blocks
// ordered by their first variable. parts is nil when there is at most one
// block; empty reports a constant row that fails.
func splitBlocks(b BasicSet) (parts []BasicSet, empty bool) {
	nv := b.Sp.NumVars()
	idx := make([]int, 3*nv)
	root, block, col := idx[:nv], idx[nv:2*nv], idx[2*nv:]
	for v := range root {
		root[v] = v
	}
	find := func(v int) int {
		for root[v] != v {
			root[v] = root[root[v]]
			v = root[v]
		}
		return v
	}
	for _, r := range b.cons {
		first := -1
		for v, c := range r.coef {
			if c == 0 {
				continue
			}
			if rv := find(v); first < 0 {
				first = rv
			} else if rv != first {
				// The smaller variable stays the root, so a block's root
				// is its first variable.
				root[max(rv, first)] = min(rv, first)
				first = min(rv, first)
			}
		}
		if first < 0 && ((r.kind == EQ && r.c != 0) || (r.kind == GE && r.c < 0)) {
			return nil, true
		}
	}
	nblocks := 0
	for v := range root {
		if r := find(v); r == v {
			block[v] = nblocks
			nblocks++
		} else {
			block[v] = block[r]
		}
	}
	if nblocks <= 1 {
		return nil, false
	}
	// One backing array each for the names, the rows and their
	// coefficients, cut block by block: width[i] variables and rows[i]
	// rows from offset nameAt[i] and rowAt[i].
	counts := make([]int, 4*nblocks)
	width, rows, nameAt, rowAt := counts[:nblocks], counts[nblocks:2*nblocks], counts[2*nblocks:3*nblocks], counts[3*nblocks:]
	for v := range nv {
		col[v] = width[block[v]]
		width[block[v]]++
	}
	words := 0
	for _, r := range b.cons {
		if v := firstVar(r); v >= 0 {
			rows[block[v]]++
			words += width[block[v]]
		}
	}
	for i := 1; i < nblocks; i++ {
		nameAt[i] = nameAt[i-1] + width[i-1]
		rowAt[i] = rowAt[i-1] + rows[i-1]
	}
	names := make([]string, nv)
	for v := range nv {
		names[nameAt[block[v]]+col[v]] = b.Sp.VarName(v)
	}
	cons := make([]con, rowAt[nblocks-1]+rows[nblocks-1])
	slab := make([]int64, words)
	parts = make([]BasicSet, nblocks)
	for i := range parts {
		parts[i].Sp.Out = names[nameAt[i] : nameAt[i]+width[i] : nameAt[i]+width[i]]
		parts[i].cons = cons[rowAt[i] : rowAt[i] : rowAt[i]+rows[i]]
	}
	for _, r := range b.cons {
		v := firstVar(r)
		if v < 0 {
			continue // a constant row that holds
		}
		p := &parts[block[v]]
		coef := slab[:width[block[v]]:width[block[v]]]
		slab = slab[len(coef):]
		for v, c := range r.coef {
			if c != 0 {
				coef[col[v]] = c
			}
		}
		p.cons = append(p.cons, con{kind: r.kind, coef: coef, c: r.c})
	}
	return parts, false
}

// firstVar returns the first column row r mentions, or -1 for a constant
// row.
func firstVar(r con) int {
	for v, c := range r.coef {
		if c != 0 {
			return v
		}
	}
	return -1
}

// countSymbolic counts a parameter-free, existential-free basic set: the
// counting recursion with no parameter columns, whose leaves are constants.
func countSymbolic(b BasicSet) (int64, error) {
	nv := b.Sp.NumVars()
	var total int64
	budget := maxCountNodes
	// countRec never writes to a row, so the set's own rows serve.
	err := countRec(b.cons, nv, 0, nv, poly.ConstInt(nv, 1), 0, &budget, func(rows []con, body poly.Poly) error {
		// All variables eliminated: residual rows are constants.
		for _, r := range rows {
			if !isConstRow(r.coef) {
				return ErrNotCountable
			}
			if (r.kind == EQ && r.c != 0) || (r.kind == GE && r.c < 0) {
				return nil
			}
		}
		c, ok := body.IsConst()
		if !ok {
			return fmt.Errorf("isl: internal: body %s is not an integer constant after elimination", body)
		}
		if total, ok = checked.Add(total, c); !ok {
			return ErrNotCountable
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

const (
	maxChamberDepth = 64
	// maxCountNodes bounds the total chamber-tree size; beyond it the
	// caller falls back to enumeration.
	maxCountNodes = 200000
)

// countLeaf receives one chamber once every dimension is eliminated: its
// rows constrain the parameters alone, and body is its number of points
// as a polynomial in them.
type countLeaf func(rows []con, body poly.Poly) error

// countRec counts by recursive symbolic summation over columns
// [params | dims]: the np parameter columns stay symbolic, and the
// remaining dims are eliminated innermost-first. Multiple lower (upper)
// bounds on a dim induce a chamber split on which bound is maximal
// (minimal); the per-dim sum uses Faulhaber's closed form. Every chamber
// that may hold points reaches leaf. Arithmetic that would leave int64,
// in a row or in the body polynomial, makes the set not countable here, so
// the caller falls back to enumeration.
func countRec(rows []con, nv, np, remaining int, body poly.Poly, depth int, budget *int, leaf countLeaf) error {
	if depth > maxChamberDepth {
		return ErrNotCountable
	}
	*budget--
	if *budget <= 0 {
		return ErrNotCountable
	}
	if body.Overflowed() {
		return ErrNotCountable
	}
	if remaining == 0 {
		return leaf(rows, body)
	}
	d := np + remaining - 1 // eliminate the innermost remaining dim

	// Equality substitution when possible.
	for i, r := range rows {
		if r.kind != EQ || r.coef[d] == 0 {
			continue
		}
		a := r.coef[d]
		if a == 1 || a == -1 {
			// x_d = -a*(rest + c): the bound the row puts on x_d, as a
			// lower bound for a = 1 and an upper one for a = -1.
			coef := make([]int64, nv)
			c, ok := makeBound(r, d, a > 0, coef)
			if !ok {
				return ErrNotCountable
			}
			nrows, ok := substituteRows(rows, i, d, a)
			if !ok {
				return ErrNotCountable
			}
			nbody := body.SubstPoly(d, affinePoly(nv, coef, c))
			return countRec(nrows, nv, np, remaining-1, nbody, depth, budget, leaf)
		}
		// Non-unit equality a*x = -(rest+c): countable only when rest is
		// constant and divisible.
		if !rowRestConst(r, d) {
			return ErrNotCountable
		}
		negC, ok := checked.Mul(-1, r.c)
		if !ok {
			return ErrNotCountable
		}
		if negC%a != 0 {
			return nil // no integer solution
		}
		v := negC / a
		nrows, ok := fixRows(rows, d, v)
		if !ok {
			return ErrNotCountable
		}
		nbody := body.SubstPoly(d, poly.ConstInt(nv, v))
		return countRec(nrows, nv, np, remaining-1, nbody, depth, budget, leaf)
	}

	lowers, uppers, rest, ok := splitBounds(rows, d, nv)
	if !ok {
		return ErrNotCountable
	}
	if len(lowers) == 0 || len(uppers) == 0 {
		return ErrUnbounded
	}
	f := fmPool.Get().(*fmScratch)
	defer fmPool.Put(f)
	// Prune dominated bounds to avoid chamber blow-up on tiled domains
	// (e.g. the lower bound 0 is redundant against 32*t once t >= 0).
	lowers = f.pruneDominated(lowers, rest, nv, true)
	uppers = f.pruneDominated(uppers, rest, nv, false)
	setPolys(lowers, nv)
	setPolys(uppers, nv)

	// With two chambers both are feasible, or pruning would have dropped a
	// bound (a rectangular tile is interior or on the far edge). With more,
	// as in the triangular solvers, about two in five are empty, and one
	// elimination is cheaper than summing a subtree to zero.
	skipEmpty := len(lowers)*len(uppers) > 2
	for li, L := range lowers {
		for ui, U := range uppers {
			chamber, ok := chamberRows(lowers, uppers, li, ui, rest, nv)
			if !ok {
				return ErrNotCountable
			}
			if skipEmpty {
				f.cur.load(nv, chamber)
				if f.infeasible(0) {
					continue
				}
			}
			nbody := poly.SumVar(body, d, L.poly, U.poly)
			if err := countRec(chamber, nv, np, remaining-1, nbody, depth+1, budget, leaf); err != nil {
				return err
			}
		}
	}
	return nil
}

// boundExpr is a lower or upper bound on the eliminated variable: an
// integer row over the outer variables (for chamber constraints) and, once
// the bound has survived pruning, the same affine form as a polynomial (for
// summation).
type boundExpr struct {
	poly poly.Poly
	coef []int64 // over nv columns, the eliminated one zero
	c    int64
}

// splitBounds sorts rows into lower bounds on column d, upper bounds on it,
// and the rest. ok is false when a bound is outside the countable class.
func splitBounds(rows []con, d, nv int) (lowers, uppers []boundExpr, rest []con, ok bool) {
	nl, nu := 0, 0
	for _, r := range rows {
		switch a := r.coef[d]; {
		case a > 0:
			nl++
		case a < 0:
			nu++
		}
	}
	rest = make([]con, 0, len(rows)-nl-nu)
	bounds := make([]boundExpr, 0, nl+nu)
	slab := make([]int64, (nl+nu)*nv)
	lowers, uppers = bounds[:0:nl], bounds[nl:nl:nl+nu]
	for _, r := range rows {
		a := r.coef[d]
		if a == 0 {
			rest = append(rest, r)
			continue
		}
		be := boundExpr{coef: slab[:nv:nv]}
		slab = slab[nv:]
		if be.c, ok = makeBound(r, d, a > 0, be.coef); !ok {
			return nil, nil, nil, false
		}
		if a > 0 { // a*x + rest + c >= 0  ->  x >= ceil(-(rest+c)/a)
			lowers = append(lowers, be)
		} else { // x <= floor((rest+c)/(-a))
			uppers = append(uppers, be)
		}
	}
	return lowers, uppers, rest, true
}

// chamberRows returns the constraints of the chamber where lowers[li] is the
// greatest lower bound and uppers[ui] the least upper bound (ties go to the
// earlier bound, so chambers are disjoint), and the range between them is
// not empty. ok is false when a row does not fit int64.
func chamberRows(lowers, uppers []boundExpr, li, ui int, rest []con, nv int) (chamber []con, ok bool) {
	extra := len(lowers) + len(uppers) - 1
	chamber = append(make([]con, 0, len(rest)+extra), rest...)
	slab := make([]int64, extra*nv)
	row := func() []int64 {
		coef := slab[:nv:nv]
		slab = slab[nv:]
		return coef
	}
	add := func(a, b boundExpr, strict int64) bool {
		r, ok := diffRow(a, b, strict, row())
		chamber = append(chamber, r)
		return ok
	}
	L, U := lowers[li], uppers[ui]
	for j, L2 := range lowers {
		if j != li && !add(L, L2, strictBefore(j, li)) { // L >= L2
			return nil, false
		}
	}
	for j, U2 := range uppers {
		if j != ui && !add(U2, U, strictBefore(j, ui)) { // U <= U2
			return nil, false
		}
	}
	return chamber, add(U, L, 0)
}

// strictBefore makes the comparison against an earlier bound strict.
func strictBefore(j, i int) int64 {
	if j < i {
		return 1
	}
	return 0
}

// pruneDominated removes bounds that can never be the binding one under
// the outer constraints: lower bound L_i is redundant when L_i <= L_j
// everywhere (some other bound is always at least as tight), established
// by the rational infeasibility of rest ∧ L_i >= L_j + 1. Upper bounds are
// symmetric.
func (f *fmScratch) pruneDominated(bounds []boundExpr, rest []con, nv int, lower bool) []boundExpr {
	if len(bounds) <= 1 {
		return bounds
	}
	f.base.load(nv, rest)
	dropped := make([]bool, len(bounds))
	for i := range bounds {
		for j := range bounds {
			if i == j || dropped[j] || dropped[i] {
				continue
			}
			// Does bound j always dominate bound i? A lower bound i is
			// redundant if L_i >= L_j + 1 is infeasible, an upper bound if
			// U_i <= U_j - 1 is.
			hi, lo := bounds[i], bounds[j]
			if !lower {
				hi, lo = lo, hi
			}
			f.cur.copyFrom(&f.base)
			row := f.cur.next()
			r, ok := diffRow(hi, lo, 1, row[:nv])
			if !ok {
				continue // keeping a bound is always sound
			}
			row[nv] = r.c
			f.cur.add(false)
			if f.infeasible(0) {
				dropped[i] = true
			}
		}
	}
	out := bounds[:0]
	for i, b := range bounds {
		if !dropped[i] {
			out = append(out, b)
		}
	}
	return out
}

// makeBound extracts the bound a GE row puts on column d as an affine form
// over the other columns: the coefficients go to coef (zeroed, length nv)
// and the constant is returned. For unit coefficients on d the bound is
// the rest of the row; for non-unit coefficients it must be constant
// (floor/ceil evaluated numerically) or have every coefficient divisible.
func makeBound(r con, d int, lower bool, coef []int64) (c int64, ok bool) {
	a := r.coef[d]
	if a == 1 || a == -1 {
		// lower: x >= -(rest+c); upper: x <= rest+c (with a = -1).
		sign := int64(-1)
		if !lower {
			sign = 1
		}
		for i, ci := range r.coef {
			if i != d {
				if coef[i], ok = checked.Mul(sign, ci); !ok {
					return 0, false
				}
			}
		}
		return checked.Mul(sign, r.c)
	}
	// Non-unit coefficient: exact when every variable coefficient is
	// divisible by |a| (the constant-tile-size pattern:
	// floor((a*w + c)/a) = w + floor(c/a), and symmetrically with ceil);
	// a constant rest is the case with nothing to divide.
	if a == math.MinInt64 || r.c == math.MinInt64 {
		return 0, false // neither negates within int64
	}
	mag := max(a, -a)
	for i, ci := range r.coef {
		if i == d {
			continue
		}
		if ci%mag != 0 {
			return 0, false
		}
		coef[i] = ci / -a // lower (a > 0): -ci/a; upper (a < 0): ci/-a
	}
	if lower {
		return ceilDiv(-r.c, a), true
	}
	return floorDiv(r.c, -a), true
}

// setPolys fills in the polynomial form of each bound.
func setPolys(bounds []boundExpr, nv int) {
	for i, b := range bounds {
		bounds[i].poly = affinePoly(nv, b.coef, b.c)
	}
}

// affinePoly returns c + sum_i coef[i]*x_i.
func affinePoly(nv int, coef []int64, c int64) poly.Poly {
	p := poly.ConstInt(nv, c)
	for i, ci := range coef {
		if ci != 0 {
			p = p.Add(poly.Var(nv, i).ScaleInt(ci))
		}
	}
	return p
}

// diffRow builds the constraint a - b - strict >= 0 with its coefficients
// in coef; ok is false when a value does not fit int64.
func diffRow(a, b boundExpr, strict int64, coef []int64) (r con, ok bool) {
	for i := range coef {
		if coef[i], ok = checked.Sub(a.coef[i], b.coef[i]); !ok {
			return con{}, false
		}
	}
	c, ok1 := checked.Sub(a.c, b.c)
	c, ok2 := checked.Sub(c, strict)
	return con{kind: GE, coef: coef, c: c}, ok1 && ok2
}

// rowRestConst reports whether row r involves no variable other than d.
func rowRestConst(r con, d int) bool {
	for i, co := range r.coef {
		if i != d && co != 0 {
			return false
		}
	}
	return true
}

// substituteRows eliminates column d from all rows using equality row eqIdx
// (unit coefficient a on d); ok is false when a value does not fit int64.
func substituteRows(rows []con, eqIdx, d int, a int64) (out []con, ok bool) {
	eq := rows[eqIdx]
	out = make([]con, 0, len(rows)-1)
	for i, r := range rows {
		if i == eqIdx {
			continue
		}
		f := r.coef[d]
		if f == 0 {
			out = append(out, r)
			continue
		}
		m, ok := checked.Mul(f, -a) // row += m * eq clears column d
		if !ok {
			return nil, false
		}
		coef := make([]int64, len(r.coef))
		for j := range coef {
			if coef[j], ok = mulAdd(r.coef[j], m, eq.coef[j]); !ok {
				return nil, false
			}
		}
		c, ok := mulAdd(r.c, m, eq.c)
		if !ok {
			return nil, false
		}
		out = append(out, con{kind: r.kind, coef: coef, c: c})
	}
	return out, true
}

// fixRows substitutes the constant v for column d in all rows; ok is false
// when a constant does not fit int64.
func fixRows(rows []con, d int, v int64) (out []con, ok bool) {
	out = make([]con, 0, len(rows))
	for _, r := range rows {
		f := r.coef[d]
		if f == 0 {
			out = append(out, r)
			continue
		}
		coef := append([]int64(nil), r.coef...)
		coef[d] = 0
		c, ok := mulAdd(r.c, f, v)
		if !ok {
			return nil, false
		}
		out = append(out, con{kind: r.kind, coef: coef, c: c})
	}
	return out, true
}

// mulAdd returns x + m*y and whether it fits an int64.
func mulAdd(x, m, y int64) (int64, bool) {
	p, ok1 := checked.Mul(m, y)
	s, ok2 := checked.Add(x, p)
	return s, ok1 && ok2
}
