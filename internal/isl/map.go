package isl

// This file implements relation (map) operations on top of the Set
// representation: a map is a set whose space carries In dimensions.

// LexLTMap returns {x -> y : x lexicographically-less-than y}, the input
// tuple named in and the output tuple out (of the same length), as a union
// of one basic relation per leading-equal prefix length.
func LexLTMap(params, in, out []string) Map {
	sp := NewMapSpace(params, in, out)
	n := len(in)
	r := EmptySet(sp)
	for k := 0; k < n; k++ {
		b := Universe(sp)
		for i := 0; i < k; i++ {
			b.AddEquals(sp.VarExpr(i), sp.VarExpr(n+i))
		}
		// x_k < y_k  <=>  y_k - x_k - 1 >= 0
		b.AddGE(sp.VarExpr(n + k).Sub(sp.VarExpr(k)).AddConst(-1))
		r.Basics = append(r.Basics, b)
	}
	return r
}

// Inverse returns the relation with inputs and outputs swapped.
func (s Set) Inverse() Map {
	nsp := Space{Params: s.Sp.Params, In: s.Sp.Out, Out: s.Sp.In}
	np, ni, no := s.Sp.NumParams(), s.Sp.NumIn(), s.Sp.NumOut()
	r := Set{Sp: nsp}
	for _, b := range s.Basics {
		nb := BasicSet{Sp: nsp, NExist: b.NExist, markedEmpty: b.markedEmpty}
		for _, c := range b.cons {
			row := make([]int64, len(c.coef))
			copy(row, c.coef[:np])
			copy(row[np:], c.coef[np+ni:np+ni+no])  // old out -> new in
			copy(row[np+no:], c.coef[np:np+ni])     // old in -> new out
			copy(row[np+no+ni:], c.coef[np+ni+no:]) // existentials
			nb.cons = append(nb.cons, con{kind: c.kind, coef: row, c: c.c})
		}
		r.Basics = append(r.Basics, nb)
	}
	return r
}

// Domain returns {x : exists y, x -> y in s} by converting the output
// dimensions into existentials (an exact operation).
func (s Set) Domain() Set {
	nsp := Space{Params: s.Sp.Params, Out: s.Sp.In}
	r := Set{Sp: nsp}
	no := s.Sp.NumOut()
	for _, b := range s.Basics {
		nb := BasicSet{Sp: nsp, NExist: b.NExist + no, markedEmpty: b.markedEmpty}
		for _, c := range b.cons {
			// Column layout is unchanged: [params | in | out | ex] becomes
			// [params | dims | ex' ] with ex' = out ++ ex.
			nb.cons = append(nb.cons, con{kind: c.kind, coef: append([]int64(nil), c.coef...), c: c.c})
		}
		r.Basics = append(r.Basics, nb)
	}
	return r
}

// Range returns {y : exists x, x -> y in s}.
func (s Set) Range() Set { return s.Inverse().Domain() }

// Chain returns the relation {a -> c : exists b, a -> b in s and b -> c in
// t} (isl's apply_range: first s, then t).
func (s Set) Chain(t Map) Map {
	if s.Sp.NumOut() != t.Sp.NumIn() {
		panic("isl: Chain arity mismatch")
	}
	if !eqStrings(s.Sp.Params, t.Sp.Params) {
		panic("isl: Chain parameter mismatch")
	}
	nsp := Space{Params: s.Sp.Params, In: s.Sp.In, Out: t.Sp.Out}
	np := len(nsp.Params)
	na, nb, nc := s.Sp.NumIn(), s.Sp.NumOut(), t.Sp.NumOut()
	r := Set{Sp: nsp}
	for _, bs := range s.Basics {
		for _, bt := range t.Basics {
			width := np + na + nc + nb + bs.NExist + bt.NExist
			nbs := BasicSet{Sp: nsp, NExist: nb + bs.NExist + bt.NExist,
				markedEmpty: bs.markedEmpty || bt.markedEmpty}
			bCol := np + na + nc       // shared middle tuple columns
			e1Col := bCol + nb         // bs existentials
			e2Col := e1Col + bs.NExist // bt existentials
			for _, c := range bs.cons {
				row := make([]int64, width)
				copy(row, c.coef[:np+na])                // params + a
				copy(row[bCol:], c.coef[np+na:np+na+nb]) // b
				copy(row[e1Col:], c.coef[np+na+nb:])     // ex1
				nbs.addRaw(c.kind, row, c.c)
			}
			for _, c := range bt.cons {
				row := make([]int64, width)
				copy(row, c.coef[:np])                    // params
				copy(row[bCol:], c.coef[np:np+nb])        // b (= t's in)
				copy(row[np+na:], c.coef[np+nb:np+nb+nc]) // c
				copy(row[e2Col:], c.coef[np+nb+nc:])      // ex2
				nbs.addRaw(c.kind, row, c.c)
			}
			if !nbs.markedEmpty {
				r.Basics = append(r.Basics, nbs)
			}
		}
	}
	return r
}

// IntersectDomain restricts a relation's domain to the given set.
func (s Set) IntersectDomain(d Set) Map {
	if !eqStrings(s.Sp.In, d.Sp.Out) {
		panic("isl: IntersectDomain space mismatch")
	}
	r := Set{Sp: s.Sp}
	np, ni := s.Sp.NumParams(), s.Sp.NumIn()
	for _, bm := range s.Basics {
		for _, bd := range d.Basics {
			nb := bm.Clone()
			base := nb.totalCols()
			nb.AddExists(bd.NExist)
			for _, c := range bd.cons {
				row := make([]int64, nb.totalCols())
				copy(row, c.coef[:np])           // params
				copy(row[np:], c.coef[np:np+ni]) // set dims -> in dims
				copy(row[base:], c.coef[np+ni:]) // existentials
				nb.addRaw(c.kind, row, c.c)
			}
			if !nb.markedEmpty {
				r.Basics = append(r.Basics, nb)
			}
		}
	}
	return r
}

// Apply returns the image of set d through relation s.
func (s Set) Apply(d Set) Set { return s.IntersectDomain(d).Range() }
