package cachemodel

import (
	"fmt"
	"slices"

	"polyufc/internal/ir"
	"polyufc/internal/isl"
)

// This file contains the paper-faithful polyhedral-relation formulation of
// PolyUFC-CM (Sec. IV-A/IV-B): access maps extended with cache line and set
// dimensions, cold-miss sets, and reuse pairs. These exact constructions
// are used to validate the scalable analytic engine in model.go and to
// reproduce the footnote-17 duplicate-elimination study; they operate on
// instantiated (fixed-size) domains and are exercised at small problem
// sizes.

// AccessLineSetMap builds the relation {iters -> (line, set)} for one
// access: line = floor(byteaddr / lineSize) and set = line mod numSets,
// both expressed with existential-free affine constraints over the added
// output dimensions plus one existential for the modulo quotient.
func AccessLineSetMap(si ir.StatementInfo, acc ir.Access, base, lineSize, numSets int64) (isl.Map, error) {
	ivs := si.IVNames()
	sp := isl.NewMapSpace(nil, ivs, []string{"line", "set"})
	b := isl.Universe(sp)
	nIn := len(ivs)

	// Linearized byte address as a LinExpr over the input dims.
	strides := acc.Array.Strides()
	if len(acc.Index) != len(strides) {
		return isl.Map{}, fmt.Errorf("cachemodel: access arity mismatch on %s", acc.Array.Name)
	}
	addr := sp.ConstExpr(base)
	for d, e := range acc.Index {
		scale := strides[d] * acc.Array.ElemSize
		for _, t := range e.Terms() {
			idx := sp.VarIndex(t.IV)
			if idx < 0 || idx >= nIn {
				return isl.Map{}, fmt.Errorf("cachemodel: unknown IV %q", t.IV)
			}
			addr.VarCoef[idx] += t.C * scale
		}
		addr.Const += e.Const * scale
	}

	lineVar := sp.VarExpr(nIn)
	setVar := sp.VarExpr(nIn + 1)
	// lineSize*line <= addr <= lineSize*line + lineSize - 1.
	b.AddGE(addr.Sub(lineVar.Scale(lineSize)))
	b.AddGE(lineVar.Scale(lineSize).AddConst(lineSize - 1).Sub(addr))
	// set = line - numSets*q with 0 <= set < numSets.
	q := b.AddExists(1)
	row := make([]int64, nIn+2+1)
	// line - numSets*q - set == 0.
	row[nIn] = 1
	row[nIn+1] = -1
	row[q] = -numSets
	b.AddRawEQ(row, 0)
	b.AddGE(setVar)
	b.AddGE(setVar.Neg().AddConst(numSets - 1))

	m := isl.FromBasic(b)
	// Restrict to the iteration domain.
	return m.IntersectDomain(si.Domain), nil
}

// DistinctLineSet returns the set of distinct (line, set) pairs the access
// touches — the paper's COLDMISS construction counts exactly these first
// touches (lexmin over the schedule picks one witness per line; the
// cardinality equals the number of distinct lines).
func DistinctLineSet(si ir.StatementInfo, acc ir.Access, base, lineSize, numSets int64) (isl.Set, error) {
	m, err := AccessLineSetMap(si, acc, base, lineSize, numSets)
	if err != nil {
		return isl.Set{}, err
	}
	return m.Range(), nil
}

// ExactColdMisses counts distinct cache lines touched by the statements of
// a nest via the relation formulation, with arrays laid out at the given
// bases. The enumeration budget bounds the cost.
func ExactColdMisses(nest *ir.Nest, bases map[*ir.Array]int64, lineSize, numSets int64, budget int) (int64, error) {
	// Distinct lines across *all* accesses must be deduplicated globally,
	// so we accumulate (line) points across ranges.
	seen := map[int64]bool{}
	for _, si := range nest.Statements() {
		for _, acc := range si.Stmt.Accesses {
			rng, err := DistinctLineSet(si, acc, bases[acc.Array], lineSize, numSets)
			if err != nil {
				return 0, err
			}
			err = rng.Enumerate(budget, func(pt []int64) bool {
				seen[pt[0]] = true
				return true
			})
			if err != nil {
				return 0, err
			}
		}
	}
	return int64(len(seen)), nil
}

// ReusePairRelation builds, for one access, the relation of same-line
// reuse pairs {(i) -> (i') : i lexlt i', line(i) = line(i'), set(i) =
// set(i')} — the F ∩ B construction of Sec. IV-A specialized to a single
// statement whose schedule is the identity over its IVs.
func ReusePairRelation(si ir.StatementInfo, acc ir.Access, base, lineSize, numSets int64) (isl.Map, error) {
	a, err := AccessLineSetMap(si, acc, base, lineSize, numSets)
	if err != nil {
		return isl.Map{}, err
	}
	// Same (line,set): A ∘ A^{-1} maps i -> all i' touching the same line;
	// its output tuple carries the input's names, so lexlt's must too.
	same := a.Chain(a.Inverse())
	ivs := si.IVNames()
	return same.Intersect(isl.LexLTMap(nil, ivs, ivs)), nil
}

// ReusePairUnion builds the union of reuse-pair relations across the
// statement's accesses; with dedup set, duplicate access functions are
// eliminated first and the union coalesced (footnote 17). It returns the
// relation and the number of basic relations counted.
func ReusePairUnion(si ir.StatementInfo, bases map[*ir.Array]int64, lineSize, numSets int64, dedup bool) (isl.Map, int, error) {
	accs := si.Stmt.Accesses
	if dedup {
		accs = slices.Concat(referenceGroups(accs)...)
	}
	var u isl.Map
	first := true
	for _, acc := range accs {
		r, err := ReusePairRelation(si, acc, bases[acc.Array], lineSize, numSets)
		if err != nil {
			return isl.Map{}, 0, err
		}
		if first {
			u = r
			first = false
		} else {
			u = u.Union(r)
		}
	}
	if first {
		return isl.Map{}, 0, fmt.Errorf("cachemodel: no accesses")
	}
	if dedup {
		u = u.Coalesce()
	}
	return u, u.NumBasics(), nil
}

// CountReusePairs counts the integer points of the reuse-pair union by
// enumeration (small problem sizes only).
func CountReusePairs(u isl.Map, budget int) (int64, error) {
	return u.CountEnumerate(budget)
}
