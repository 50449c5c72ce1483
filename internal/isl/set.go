package isl

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"strings"
)

// Set is a union of basic sets over a common space. When the space has In
// dimensions the Set is interpreted as a relation (see Map).
type Set struct {
	Sp     Space
	Basics []BasicSet
}

// Map is a relation: a union of basic relations. Structurally identical to
// Set; the space's In dimensions carry the domain.
type Map = Set

// EmptySet returns the empty set over the given space.
func EmptySet(sp Space) Set { return Set{Sp: sp} }

// FromBasic wraps a single basic set as a union.
func FromBasic(b BasicSet) Set { return Set{Sp: b.Sp, Basics: []BasicSet{b}} }

// NumBasics returns the number of basic sets in the union.
func (s Set) NumBasics() int { return len(s.Basics) }

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	if !s.Sp.Equal(o.Sp) {
		panic("isl: Union on different spaces")
	}
	r := Set{Sp: s.Sp}
	r.Basics = append(append([]BasicSet(nil), s.Basics...), o.Basics...)
	return r
}

// Intersect returns s ∩ o (pairwise basic-set intersections).
func (s Set) Intersect(o Set) Set {
	if !s.Sp.Equal(o.Sp) {
		panic("isl: Intersect on different spaces")
	}
	r := Set{Sp: s.Sp}
	for _, a := range s.Basics {
		for _, b := range o.Basics {
			x := a.Intersect(b)
			if !x.markedEmpty {
				r.Basics = append(r.Basics, x)
			}
		}
	}
	return r
}

// Subtract returns s \ o. Existential-free constraints of o are negated;
// basic sets of o containing existentials are first projected (the
// projection is an over-approximation of o, so the difference remains an
// under-approximation only if projection was inexact — exactness is
// reported by the second return value).
func (s Set) Subtract(o Set) (Set, bool) {
	if !s.Sp.Equal(o.Sp) {
		panic("isl: Subtract on different spaces")
	}
	exact := true
	cur := s
	for _, b := range o.Basics {
		nb := b
		if nb.NExist > 0 {
			var ex bool
			nb, ex = nb.EliminateExists()
			exact = exact && ex
		}
		next := Set{Sp: s.Sp}
		for _, a := range cur.Basics {
			next.Basics = append(next.Basics, subtractBasic(a, nb)...)
		}
		cur = next
	}
	return cur, exact
}

// subtractBasic computes a \ b where b has no existentials, as a union of
// basic sets: for each constraint of b, a piece of a where that constraint
// is violated (with earlier constraints holding, to keep pieces disjoint).
func subtractBasic(a, b BasicSet) []BasicSet {
	var out []BasicSet
	var holds []con // constraints of b asserted so far
	for _, c := range b.cons {
		negs := negateCon(c)
		for _, nc := range negs {
			piece := a.Clone()
			base := a.Sp.NumCols()
			for _, hc := range holds {
				piece.addRaw(hc.kind, widenRow(hc.coef, base, piece.totalCols()), hc.c)
			}
			piece.addRaw(nc.kind, widenRow(nc.coef, base, piece.totalCols()), nc.c)
			if !piece.markedEmpty && !piece.IsEmptyRational() {
				out = append(out, piece)
			}
		}
		holds = append(holds, c)
	}
	return out
}

// widenRow adapts a constraint row with `base` leading columns (and no
// existentials) to a row with `width` columns.
func widenRow(row []int64, base, width int) []int64 {
	out := make([]int64, width)
	copy(out, row[:base])
	return out
}

// negateCon returns constraints expressing the negation of c:
// not(e >= 0) is -e-1 >= 0; not(e == 0) is e-1 >= 0 or -e-1 >= 0.
func negateCon(c con) []con {
	neg := con{kind: GE, coef: negRow(c.coef), c: -c.c - 1}
	if c.kind == GE {
		return []con{neg}
	}
	pos := con{kind: GE, coef: append([]int64(nil), c.coef...), c: c.c - 1}
	return []con{pos, neg}
}

// InstantiateParams folds concrete parameter values into every basic set.
func (s Set) InstantiateParams(vals []int64) (Set, error) {
	r := Set{Sp: Space{In: s.Sp.In, Out: s.Sp.Out}}
	for _, b := range s.Basics {
		nb, err := b.InstantiateParams(vals)
		if err != nil {
			return Set{}, err
		}
		if !nb.markedEmpty {
			r.Basics = append(r.Basics, nb)
		}
	}
	return r, nil
}

// EvalPoint reports whether the point lies in any basic set of s.
func (s Set) EvalPoint(params, vars []int64) bool {
	for _, b := range s.Basics {
		if b.EvalPoint(params, vars) {
			return true
		}
	}
	return false
}

// ProjectOutVar projects away variable i from every basic set.
func (s Set) ProjectOutVar(i int) (Set, bool) {
	exact := true
	r := Set{Sp: s.Sp.withoutVar(i)}
	for _, b := range s.Basics {
		nb, ex := b.ProjectOutVar(i)
		exact = exact && ex
		if !nb.markedEmpty {
			r.Basics = append(r.Basics, nb)
		}
	}
	return r, exact
}

// QuantifyVar turns variable i into an existential dimension in every basic
// set (see BasicSet.QuantifyVar).
func (s Set) QuantifyVar(i int) Set {
	r := Set{Sp: s.Sp.withoutVar(i), Basics: make([]BasicSet, len(s.Basics))}
	for j, b := range s.Basics {
		r.Basics[j] = b.QuantifyVar(i)
	}
	return r
}

func (s Set) String() string {
	if len(s.Basics) == 0 {
		return s.Sp.String() + " : false"
	}
	parts := make([]string, len(s.Basics))
	for i, b := range s.Basics {
		parts[i] = b.String()
	}
	return strings.Join(parts, " ;; ")
}

// Coalesce removes basic sets marked empty and deduplicates structurally
// identical basic sets. This is the duplicate-elimination step PolyUFC
// applies before symbolic counting (paper footnote 17).
func (s Set) Coalesce() Set {
	r, _ := s.coalesce(nil)
	return r
}

// coalesce is Coalesce that also appends the canonical key of the result to
// key: the keys of its basic sets in sorted order, so two unions of the same
// basic sets — in any order, with any duplicates — share a key. A set of at
// most one basic set, the common case, needs no table and no sort.
func (s Set) coalesce(key []byte) (Set, []byte) {
	live := 0
	for _, b := range s.Basics {
		if !b.markedEmpty {
			live++
		}
	}
	r := Set{Sp: s.Sp}
	if live <= 1 {
		for _, b := range s.Basics {
			if !b.markedEmpty {
				r.Basics = []BasicSet{b}
				key = b.appendKey(key)
			}
		}
		return r, key
	}
	seen := make(map[string]bool, live)
	keys := make([]string, 0, live)
	var buf []byte
	for _, b := range s.Basics {
		if b.markedEmpty {
			continue
		}
		buf = b.appendKey(buf[:0])
		if seen[string(buf)] {
			continue
		}
		k := string(buf)
		seen[k] = true
		keys = append(keys, k)
		r.Basics = append(r.Basics, b)
	}
	sort.Strings(keys)
	for _, k := range keys {
		key = append(key, k...)
	}
	return r, key
}

// appendKey appends b's canonical binary key: its column and existential
// counts, then every constraint (kind, coefficients, constant, as varints)
// in sorted row order, so the order constraints were added in does not
// matter. Every field is self-delimiting, so distinct constraint systems
// have distinct keys.
func (b BasicSet) appendKey(key []byte) []byte {
	key = binary.AppendUvarint(key, uint64(b.totalCols()))
	key = binary.AppendUvarint(key, uint64(b.NExist))
	key = binary.AppendUvarint(key, uint64(len(b.cons)))
	order := make([]int, len(b.cons))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		cx, cy := b.cons[x], b.cons[y]
		if c := cmp.Compare(cx.kind, cy.kind); c != 0 {
			return c
		}
		if c := slices.Compare(cx.coef, cy.coef); c != 0 {
			return c
		}
		return cmp.Compare(cx.c, cy.c)
	})
	for _, i := range order {
		c := b.cons[i]
		key = append(key, byte(c.kind))
		for _, v := range c.coef {
			key = binary.AppendVarint(key, v)
		}
		key = binary.AppendVarint(key, c.c)
	}
	return key
}

// CountMemo counts sets and remembers each cardinality under the set's
// canonical constraint key, for callers that count many sets of which most
// are repeats: the statements of one nest share their outer loops, so their
// prefix projections are the same sets. Beneath the whole-set key it
// remembers the count of every independent variable block (see
// countBlocks) under the block's own key: sets that differ as wholes still
// share blocks, as the prefix projections of a tiled nest do. It is meant
// to live as long as one analysis does.
type CountMemo struct {
	counts map[string]int64
	blocks map[string]int64
	key    []byte
}

// Count is Set.Count through the memo.
func (m *CountMemo) Count(s Set, enumLimit int) (int64, error) {
	if s.Sp.NumParams() != 0 {
		return 0, errors.New("isl: Count requires instantiated parameters")
	}
	var co Set
	co, m.key = s.coalesce(m.key[:0])
	if n, ok := m.counts[string(m.key)]; ok {
		return n, nil
	}
	if m.counts == nil {
		m.counts, m.blocks = map[string]int64{}, map[string]int64{}
	}
	n, err := co.countCoalesced(enumLimit, m.blocks)
	if err != nil {
		return 0, err
	}
	m.counts[string(m.key)] = n
	return n, nil
}
