// Package pluto implements the baseline loop-nest transformation of the
// PolyUFC flow: polyhedral dependence analysis, legality-checked
// rectangular tiling (Pluto's default tile size 32), and parallel-loop
// marking. It is a deliberately small reimplementation of the parts of the
// Pluto compiler (Bondhugula et al., PLDI 2008) the paper's evaluation
// relies on: its output is the "Pluto tiled-parallel" code shape that
// PolyUFC-CM analyzes and the hardware baseline executes.
package pluto

import (
	"encoding/binary"
	"fmt"
	"slices"

	"polyufc/internal/ir"
	"polyufc/internal/isl"
)

// Dependence describes one data dependence between two statement instances
// of a nest, summarized per loop level.
type Dependence struct {
	Array *ir.Array
	// SrcStmt and DstStmt name the endpoints.
	SrcStmt, DstStmt string
	// Kind is "flow", "anti", or "output".
	Kind string
	// NonNegative[k] reports that no instance of the dependence has a
	// negative distance at loop level k.
	NonNegative []bool
	// Zero[k] reports that every instance has distance exactly 0 at level
	// k (the condition under which level k remains parallel).
	Zero []bool
	// Carried[k] reports that some instance has equal distances at levels
	// < k and a positive distance at level k.
	Carried []bool
}

// DepInfo aggregates the dependences of one nest.
type DepInfo struct {
	Depth int
	Deps  []Dependence
}

// FullyPermutable reports whether every dependence has non-negative
// distance at every level, the legality condition for rectangular tiling
// of the whole band.
func (d *DepInfo) FullyPermutable() bool {
	for _, dep := range d.Deps {
		for _, nn := range dep.NonNegative {
			if !nn {
				return false
			}
		}
	}
	return true
}

// ParallelLevels returns, per loop level, whether the level is parallel:
// every dependence has zero distance at that level.
func (d *DepInfo) ParallelLevels() []bool {
	out := make([]bool, d.Depth)
	for k := range out {
		out[k] = true
		for _, dep := range d.Deps {
			if !dep.Zero[k] {
				out[k] = false
				break
			}
		}
	}
	return out
}

// Analyze computes the dependences of a nest. All statements must share the
// full loop stack (a "perfect" nest); imperfect nests are rejected.
func Analyze(nest *ir.Nest) (*DepInfo, error) {
	sts := nest.Statements()
	if len(sts) == 0 {
		return nil, fmt.Errorf("pluto: nest has no statements")
	}
	depth := len(sts[0].Loops)
	for _, si := range sts {
		if len(si.Loops) != depth {
			return nil, fmt.Errorf("pluto: imperfect nest (statement %s at depth %d, expected %d)",
				si.Stmt.Name, len(si.Loops), depth)
		}
	}
	info := &DepInfo{Depth: depth}
	solved := map[string]solvedPair{}
	for si1 := range sts {
		for si2 := range sts {
			info.Deps = append(info.Deps, pairDeps(sts[si1], sts[si2], si1 < si2, solved)...)
		}
	}
	return info, nil
}

// solvedPair is the outcome of one dependence system: the per-level
// summary (endpoints and kind left blank) and whether any instance exists.
type solvedPair struct {
	dep      Dependence
	nonEmpty bool
}

// pairDeps computes the dependences from accesses of s1 to accesses of s2,
// where s1's instance precedes s2's in execution order (lexicographic over
// the shared IVs; for equal iterations, only when s1 comes first in the
// text: allowEqual).
//
// The dependence system of an access pair is determined by the two
// iteration domains, the two index functions and allowEqual — not by which
// textual accesses they came from, nor by which is the write. A statement
// like C[i][j] = C[i][j] + A[i][k]*B[k][j] poses the C-against-C system
// three times (flow, anti, output); solved remembers each system's outcome
// for the nest so it is eliminated once.
func pairDeps(s1, s2 ir.StatementInfo, allowEqual bool, solved map[string]solvedPair) []Dependence {
	var out []Dependence
	ivs := s1.IVNames()
	var key []byte
	for _, a1 := range s1.Stmt.Accesses {
		for _, a2 := range s2.Stmt.Accesses {
			if a1.Array != a2.Array {
				continue
			}
			if !a1.Write && !a2.Write {
				continue
			}
			kind := "flow"
			switch {
			case a1.Write && a2.Write:
				kind = "output"
			case !a1.Write && a2.Write:
				kind = "anti"
			}
			key = systemKey(key[:0], ivs, s1, s2, a1, a2, allowEqual)
			sp, ok := solved[string(key)]
			if !ok {
				sp.dep, sp.nonEmpty = analyzeAccessPair(ivs, s1, s2, a1, a2, allowEqual)
				solved[string(key)] = sp
			}
			if sp.nonEmpty {
				out = append(out, Dependence{
					Array: a1.Array, SrcStmt: s1.Stmt.Name, DstStmt: s2.Stmt.Name, Kind: kind,
					NonNegative: slices.Clone(sp.dep.NonNegative),
					Zero:        slices.Clone(sp.dep.Zero),
					Carried:     slices.Clone(sp.dep.Carried),
				})
			}
		}
	}
	return out
}

// systemKey appends what identifies the dependence system of an access
// pair within one nest: the statements' innermost loops (statements under
// the same loop have the same domain), the array, both index functions as
// coefficient rows over ivs, and allowEqual.
func systemKey(key []byte, ivs []string, s1, s2 ir.StatementInfo, a1, a2 ir.Access, allowEqual bool) []byte {
	key = fmt.Appendf(key, "%p %p %p %t", s1.Loops[len(s1.Loops)-1], s2.Loops[len(s2.Loops)-1], a1.Array, allowEqual)
	for _, a := range []ir.Access{a1, a2} {
		key = append(key, '|')
		for _, e := range a.Index {
			for _, iv := range ivs {
				key = binary.AppendVarint(key, e.Coeff(iv))
			}
			key = binary.AppendVarint(key, e.Const)
		}
	}
	return key
}

// analyzeAccessPair builds the dependence relation
// {(i, i') : i in D1, i' in D2, f(i) = g(i'), i before i'} and summarizes
// its distance signs per level, using sound rational emptiness tests
// (inconclusive tests are treated as "dependence may exist").
func analyzeAccessPair(ivs []string, s1, s2 ir.StatementInfo, a1, a2 ir.Access, allowEqual bool) (Dependence, bool) {
	n := len(ivs)
	base := depBase(ivs, s1, s2, a1, a2)
	sp := base.Sp

	// Per level k: i'_k > i_k, i'_k < i_k, and "carried at k" — i and i'
	// agree on the levels above k and i'_k > i_k.
	gt := make([]isl.BasicSet, n)
	lt := make([]isl.BasicSet, n)
	carried := make([]isl.BasicSet, n)
	equal := isl.Universe(sp) // the prefix equalities so far
	for k := 0; k < n; k++ {
		ik, jk := sp.VarExpr(k), sp.VarExpr(n+k)
		gt[k], lt[k] = isl.Universe(sp), isl.Universe(sp)
		gt[k].AddGE(jk.Sub(ik).AddConst(-1))
		lt[k].AddGE(ik.Sub(jk).AddConst(-1))
		carried[k] = equal.Intersect(gt[k])
		equal.AddEquals(ik, jk)
	}

	// "i before i'" in lexicographic pieces: carried at some level, plus
	// the all-equal piece when textual order allows it.
	pieces := make([]isl.BasicSet, 0, n+1)
	for k := 0; k < n; k++ {
		pieces = append(pieces, base.Intersect(carried[k]))
	}
	if allowEqual {
		pieces = append(pieces, base.Intersect(equal))
	}
	// possible reports whether some instance of the dependence satisfies
	// test as well.
	possible := func(test isl.BasicSet) bool {
		for _, p := range pieces {
			if !p.IsEmptyRationalWith(test) {
				return true
			}
		}
		return false
	}

	if !possible(isl.Universe(sp)) {
		return Dependence{}, false
	}

	dep := Dependence{
		NonNegative: make([]bool, n),
		Zero:        make([]bool, n),
		Carried:     make([]bool, n),
	}
	for k := 0; k < n; k++ {
		neg := possible(lt[k])
		dep.NonNegative[k] = !neg
		dep.Zero[k] = !neg && !possible(gt[k])
		dep.Carried[k] = possible(carried[k])
	}
	return dep, true
}

// depBase builds the conjunction: i in D1, i' in D2, f(i) = g(i') over the
// 2n-dimensional space (i, i').
func depBase(ivs []string, s1, s2 ir.StatementInfo, a1, a2 ir.Access) isl.BasicSet {
	n := len(ivs)
	dims := make([]string, 0, 2*n)
	dims = append(dims, ivs...)
	for _, iv := range ivs {
		dims = append(dims, iv+"'")
	}
	sp := isl.NewSetSpace(nil, dims)
	b := isl.Universe(sp)
	embedDomain(&b, s1.Domain, 0, 2*n)
	embedDomain(&b, s2.Domain, n, 2*n)
	// Access equality per array dimension.
	for d := range a1.Index {
		e := sp.NewLinExpr()
		addAff(&e, a1.Index[d], ivs, 0, 1)
		addAff(&e, a2.Index[d], ivs, n, -1)
		b.AddEQ(e)
	}
	return b
}

// embedDomain adds the constraints of a (parameter- and existential-free)
// domain over n IVs into a wider basic set, with the domain's variables
// mapped to columns [offset, offset+n).
func embedDomain(b *isl.BasicSet, dom isl.Set, offset, width int) {
	for _, bs := range dom.Basics {
		for _, cv := range bs.Constraints() {
			row := make([]int64, width)
			for i, c := range cv.Coef {
				row[offset+i] = c
			}
			if cv.Kind == isl.EQ {
				b.AddRawEQ(row, cv.Const)
			} else {
				b.AddRawGE(row, cv.Const)
			}
		}
	}
}

// addAff accumulates sign * aff (over the named IVs at the given column
// offset) into a LinExpr of the dependence space.
func addAff(e *isl.LinExpr, aff ir.AffExpr, ivs []string, offset int, sign int64) {
	for _, t := range aff.Terms() {
		idx := slices.Index(ivs, t.IV)
		if idx < 0 {
			panic(fmt.Sprintf("pluto: access references unknown IV %q", t.IV))
		}
		e.VarCoef[offset+idx] += sign * t.C
	}
	e.Const += sign * aff.Const
}
