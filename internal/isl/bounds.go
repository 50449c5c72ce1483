package isl

// boundSystems holds, for each column k, a constraint system involving only
// columns <= k, obtained by rationally eliminating all later columns with
// Fourier-Motzkin. The systems give (possibly loose) integer bounds for
// column k given fixed values of columns < k; loose bounds are harmless for
// enumeration because every candidate point is verified against the full
// constraint system.
type boundSystems struct {
	rows []sys
}

// buildBoundSystems computes the per-column projected systems for b.
func (b BasicSet) buildBoundSystems() *boundSystems {
	n := b.totalCols()
	bs := &boundSystems{rows: make([]sys, n)}
	if n == 0 {
		return bs
	}
	bs.rows[n-1].load(n, b.cons)
	for col := n - 1; col > 0; col-- {
		bs.rows[col].eliminate(col, &bs.rows[col-1])
	}
	return bs
}

// DimRange returns rational lower/upper bounds for set dimension d over
// the whole (instantiated) set, by Fourier-Motzkin elimination of every
// other column. ok is false when the dimension is unbounded or the set is
// empty on the rational relaxation.
func (s Set) DimRange(d int) (lo, hi int64, ok bool) {
	const inf = int64(1) << 62
	lo, hi = inf, -inf
	found := false
	np := s.Sp.NumParams()
	for _, b := range s.Basics {
		if b.markedEmpty {
			continue
		}
		f := fmPool.Get().(*fmScratch)
		f.cur.load(b.totalCols(), b.cons)
		target := np + d
		for col := b.totalCols() - 1; col >= 0; col-- {
			if col != target && f.cur.uses(col) {
				f.cur.eliminate(col, &f.alt)
				f.swap()
			}
		}
		blo, bhi := -inf, inf
		infeasible := f.cur.empty
		for r, eq := range f.cur.eq {
			row := f.cur.row(r)
			a, c := row[target], row[f.cur.n]
			if eq {
				v := -c / a
				blo, bhi = max(blo, v), min(bhi, v)
			} else if a > 0 {
				blo = max(blo, ceilDiv(-c, a))
			} else {
				bhi = min(bhi, floorDiv(c, -a))
			}
		}
		fmPool.Put(f)
		if infeasible || blo > bhi {
			continue
		}
		found = true
		if blo < lo {
			lo = blo
		}
		if bhi > hi {
			hi = bhi
		}
	}
	if !found || lo <= -inf/2 || hi >= inf/2 {
		return 0, 0, false
	}
	return lo, hi, true
}

// colBounds derives [lo, hi] bounds for column col from the projected
// system, given fixed values for columns [0, col). A row over those
// columns alone is not evaluated: elimination carries it from this system
// into an earlier column's, so a column fixed within its own colBounds
// already satisfies it, and searchExists checks every row of a point it
// was handed.
func (bs *boundSystems) colBounds(full []int64, col int) (lo, hi int64, ok bool) {
	const inf = int64(1) << 62
	lo, hi = -inf, inf
	sys := &bs.rows[col]
	if sys.empty {
		return 0, 0, false
	}
	for r, eq := range sys.eq {
		row := sys.row(r)
		a := row[col]
		if a == 0 {
			continue
		}
		rest := row[sys.n]
		for j := 0; j < col; j++ {
			rest += row[j] * full[j]
		}
		if eq {
			if rest%a != 0 {
				return 0, 0, false
			}
			v := -rest / a
			lo, hi = max(lo, v), min(hi, v)
		} else if a > 0 {
			lo = max(lo, ceilDiv(-rest, a))
		} else {
			hi = min(hi, floorDiv(rest, -a))
		}
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}
