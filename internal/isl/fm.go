package isl

import (
	"math"
	"slices"
	"sync"

	"polyufc/internal/checked"
)

// sys is a constraint system laid out for Fourier-Motzkin elimination: every
// row lives in one flat buffer (stride n+1, constant last), so a test that
// ping-pongs between two systems allocates nothing once they have grown.
//
// add keeps the system small: a row is divided by the gcd of its
// coefficients (tightening the constant of an inequality, as normalizeCon
// does), constant rows are decided on the spot, and of several inequalities
// with the same coefficients only the tightest stays. None of that changes
// the set the rows describe, so it changes no verdict drawn from them.
type sys struct {
	n    int      // coefficient columns
	a    []int64  // rows, n+1 words each
	eq   []bool   // row kinds: equality or >= 0
	hash []uint64 // per-row hash of the coefficients
	// empty records a violated constant row: the system has no solution.
	empty bool
	// lossy records that a row was left out because a coefficient did not
	// fit an int64: the system over-approximates what was put into it, so
	// a projection computed from it is not exact and "not known empty" is
	// the only sound verdict short of empty.
	lossy bool
}

func (s *sys) reset(n int) {
	s.n = n
	s.a, s.eq, s.hash = s.a[:0], s.eq[:0], s.hash[:0]
	s.empty, s.lossy = false, false
}

func (s *sys) row(r int) []int64 { return s.a[r*(s.n+1) : (r+1)*(s.n+1)] }

// next returns the buffer of a new row, for the caller to fill and add.
func (s *sys) next() []int64 {
	w := s.n + 1
	s.a = slices.Grow(s.a, w)
	return s.a[len(s.a) : len(s.a)+w]
}

// add commits the row last handed out by next.
func (s *sys) add(eq bool) {
	n := s.n
	row := s.a[len(s.a) : len(s.a)+n+1]
	var g int64
	for _, v := range row[:n] {
		if g = gcd64(g, v); g == 1 {
			break
		}
	}
	if g == 0 {
		if c := row[n]; (eq && c != 0) || (!eq && c < 0) {
			s.empty = true
		}
		return
	}
	if g > 1 {
		for i := range row[:n] {
			row[i] /= g
		}
		if !eq {
			row[n] = floorDiv(row[n], g)
		} else if row[n]%g != 0 {
			s.empty = true // no integer solution
			return
		} else {
			row[n] /= g
		}
	}
	h := uint64(14695981039346656037) // FNV-1a over the coefficient words
	for _, v := range row[:n] {
		h = (h ^ uint64(v)) * 1099511628211
	}
	for r, oh := range s.hash {
		if oh != h || s.eq[r] != eq {
			continue
		}
		old := s.row(r)
		if !slices.Equal(old[:n], row[:n]) {
			continue
		}
		switch {
		case !eq:
			old[n] = min(old[n], row[n])
		case old[n] != row[n]:
			s.empty = true
		}
		return
	}
	s.a = s.a[:len(s.a)+n+1]
	s.eq = append(s.eq, eq)
	s.hash = append(s.hash, h)
}

// copyFrom makes s a copy of o.
func (s *sys) copyFrom(o *sys) {
	s.n, s.empty, s.lossy = o.n, o.empty, o.lossy
	s.a = append(s.a[:0], o.a...)
	s.eq = append(s.eq[:0], o.eq...)
	s.hash = append(s.hash[:0], o.hash...)
}

// load resets s to the given constraints over n columns.
func (s *sys) load(n int, cons []con) {
	s.reset(n)
	for _, c := range cons {
		s.push(c)
	}
}

// push adds a constraint over the first len(c.coef) columns.
func (s *sys) push(c con) {
	row := s.next()
	clear(row[copy(row, c.coef):])
	row[s.n] = c.c
	s.add(c.kind == EQ)
}

// combine sets dst = p*x + q*y, reporting whether every entry fit an int64
// (math.MinInt64 counts as not fitting: its negation does not).
func combine(dst, x, y []int64, p, q int64) bool {
	for i := range dst {
		if x[i] == 0 && y[i] == 0 {
			dst[i] = 0
			continue
		}
		a, ok1 := checked.Mul(p, x[i])
		b, ok2 := checked.Mul(q, y[i])
		v, ok3 := checked.Add(a, b)
		if !ok1 || !ok2 || !ok3 || v == math.MinInt64 {
			return false
		}
		dst[i] = v
	}
	return true
}

// uses reports whether any row has a nonzero coefficient on col.
func (s *sys) uses(col int) bool {
	for r := range s.eq {
		if s.row(r)[col] != 0 {
			return true
		}
	}
	return false
}

// unitEqualityOn returns an equality row with a +-1 coefficient on col, or
// -1.
func (s *sys) unitEqualityOn(col int) int {
	for r, eq := range s.eq {
		if v := s.row(r)[col]; eq && (v == 1 || v == -1) {
			return r
		}
	}
	return -1
}

// unitEquality returns an equality row and a column >= from on which its
// coefficient is +-1, or -1, -1.
func (s *sys) unitEquality(from int) (int, int) {
	for r, eq := range s.eq {
		if !eq {
			continue
		}
		row := s.row(r)
		for c := s.n - 1; c >= from; c-- {
			if row[c] == 1 || row[c] == -1 {
				return r, c
			}
		}
	}
	return -1, -1
}

// substitute writes into dst the system with column col substituted away
// through equality row e, whose coefficient on col is +-1: an exact
// projection that adds no row.
func (s *sys) substitute(e, col int, dst *sys) {
	dst.reset(s.n)
	dst.empty, dst.lossy = s.empty, s.lossy
	eqRow := s.row(e)
	for r := range s.eq {
		if r == e {
			continue
		}
		row, out := s.row(r), dst.next()
		if row[col] == 0 {
			copy(out, row)
		} else if f, ok := checked.Mul(row[col], -eqRow[col]); !ok || !combine(out, row, eqRow, 1, f) {
			// col = -sign*(rest + const), so row - (coef*sign)*eqRow zeroes
			// col; here that did not fit.
			dst.lossy = true
			continue
		}
		dst.add(s.eq[r])
	}
}

// eliminate writes into dst the Fourier-Motzkin projection of s along col
// and reports whether it is integrally exact: every lower/upper pair it
// combined had a unit coefficient on one side. An equality on col acts as
// both a lower and an upper bound.
func (s *sys) eliminate(col int, dst *sys) (exact bool) {
	dst.reset(s.n)
	dst.empty, dst.lossy = s.empty, s.lossy
	for r := range s.eq {
		if row := s.row(r); row[col] == 0 {
			copy(dst.next(), row)
			dst.add(s.eq[r])
		}
	}
	exact = true
	for lo := range s.eq {
		l := s.row(lo)
		a, ls := l[col], int64(1) // a > 0 after the sign flip ls
		if a < 0 && s.eq[lo] {
			a, ls = -a, -1
		}
		if a <= 0 {
			continue
		}
		for up := range s.eq {
			u := s.row(up)
			b, us := -u[col], int64(1) // b > 0 likewise
			if b < 0 && s.eq[up] {
				b, us = -b, -1
			}
			if b <= 0 {
				continue
			}
			if a != 1 && b != 1 {
				exact = false
			}
			if lo == up {
				// An equality against itself is 0 >= 0, but a non-unit one
				// leaves a divisibility condition behind (noted above).
				continue
			}
			// b*lower + a*upper cancels col; dividing both by their gcd
			// first only scales the row, which add normalizes anyway.
			g := gcd64(a, b)
			if !combine(dst.next(), l, u, b/g*ls, a/g*us) {
				dst.lossy = true
				continue
			}
			dst.add(false)
		}
	}
	return exact && !dst.lossy
}

// fmScratch holds the pair of systems an elimination sequence alternates
// between, and a third for the rows that several tests in a row share.
type fmScratch struct{ cur, alt, base sys }

var fmPool = sync.Pool{New: func() any { return new(fmScratch) }}

func (f *fmScratch) swap() { f.cur, f.alt = f.alt, f.cur }

// infeasible reports whether f.cur has no rational solution (strengthened by
// the integer tightening add applies), eliminating every column >= from;
// rows over the columns below from are left undecided. Equalities with a
// unit coefficient are substituted first: each removes a column exactly
// without multiplying rows. A false result is inconclusive.
func (f *fmScratch) infeasible(from int) bool {
	for !f.cur.empty {
		e, col := f.cur.unitEquality(from)
		if e < 0 {
			break
		}
		f.cur.substitute(e, col, &f.alt)
		f.swap()
	}
	for col := f.cur.n - 1; col >= from && !f.cur.empty; col-- {
		if f.cur.uses(col) {
			f.cur.eliminate(col, &f.alt)
			f.swap()
		}
	}
	return f.cur.empty
}

// project eliminates col from f.cur, by substitution when an equality has
// a unit coefficient on it and by Fourier-Motzkin otherwise, and reports
// whether the projection is integrally exact.
func (f *fmScratch) project(col int) (exact bool) {
	if e := f.cur.unitEqualityOn(col); e >= 0 {
		f.cur.substitute(e, col, &f.alt)
		exact = !f.alt.lossy
	} else {
		exact = f.cur.eliminate(col, &f.alt)
	}
	f.swap()
	return exact
}

// cons copies the first width columns of the system's rows out as
// constraints sharing one backing array.
func (s *sys) cons(width int) []con {
	out := make([]con, len(s.eq))
	slab := make([]int64, len(s.eq)*width)
	for r, eq := range s.eq {
		row := s.row(r)
		coef := slab[r*width : (r+1)*width : (r+1)*width]
		copy(coef, row)
		out[r] = con{kind: GE, coef: coef, c: row[s.n]}
		if eq {
			out[r].kind = EQ
		}
	}
	return out
}
