// Package poly implements exact multivariate polynomial arithmetic over the
// rationals, Bernoulli numbers, and Faulhaber (closed-form power-sum)
// summation. It is the counting back end of the polyhedral library: the
// cardinality of a loop-nest-form integer polytope is computed by summing
// polynomials symbolically, dimension by dimension, which is the role the
// barvinok library plays in the original PolyUFC implementation.
//
// A polynomial is stored in machine words: a sorted slice of terms with
// packed exponents and int64 numerators over one common denominator. An
// operation that needs a word that does not fit (a numerator, the common
// denominator, an exponent field, or a product or sum on the way to one),
// or a variable space too wide for one key word, returns an overflowed
// polynomial instead. Overflowed reports it, every operation on it is
// overflowed too, and it never holds a wrong value. For the counter an
// overflow means "not countable here", and bounded enumeration answers.
// Kernel-sized counts stay far inside int64: over 37 kernels x {BDW, RPL}
// x {test, bench, full} x 10 tiling choices no operation overflows (see
// DESIGN.md, "The counting back end").
package poly

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"polyufc/internal/checked"
)

// term is one monomial: num/den (den is the polynomial's) times the
// variables raised to the exponents packed in key, variable i in bits
// [i*w, (i+1)*w).
type term struct {
	key uint64
	num int64
}

// Poly is a polynomial in a fixed number of variables with rational
// coefficients. The zero value is not usable; construct values with New,
// ConstInt, Var, or the arithmetic methods. Variables are identified by
// index in [0, N). Polynomials are immutable: all operations return new
// values.
type Poly struct {
	// n is the number of variables in the polynomial's space.
	n int
	// w is the width in bits of one packed exponent: 8 up to eight
	// variables, 64/n beyond (0 past 64 variables: only constants fit).
	w uint8
	// terms is sorted by key with no zero numerator; den > 0 is the
	// common denominator, and gcd(den, every numerator) = 1, so equal
	// polynomials have equal representations. den = 0 marks an overflowed
	// polynomial, which has no terms.
	terms []term
	den   int64
}

// New returns the zero polynomial in n variables.
func New(n int) Poly {
	if n < 0 {
		panic("poly: negative variable count")
	}
	w := 8
	if n > 8 {
		w = 64 / n
	}
	return Poly{n: n, w: uint8(w), den: 1}
}

// ConstInt returns the constant polynomial c in n variables.
func ConstInt(n int, c int64) Poly {
	p := New(n)
	if c != 0 {
		p.terms = []term{{num: c}}
	}
	return p
}

// Var returns the polynomial consisting of the single variable i. It is
// overflowed in a space of more than 64 variables.
func Var(n, i int) Poly {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("poly: variable %d out of range [0,%d)", i, n))
	}
	p := New(n)
	if p.w == 0 {
		return p.overflowed()
	}
	p.terms = []term{{key: 1 << (uint(i) * uint(p.w)), num: 1}}
	return p
}

// overflowed returns the overflowed polynomial in p's space.
func (p Poly) overflowed() Poly { return Poly{n: p.n, w: p.w} }

// Overflowed reports whether p is the result of an operation that
// overflowed a machine word: p then has no value.
func (p Poly) Overflowed() bool { return p.den == 0 }

// NumVars reports the number of variables in p's space.
func (p Poly) NumVars() int { return p.n }

// IsZero reports whether p is the zero polynomial. An overflowed
// polynomial is not.
func (p Poly) IsZero() bool { return len(p.terms) == 0 && p.den == 1 }

// IsConst returns p's value when p is an integer constant; ok is false for
// any other polynomial, an overflowed one included.
func (p Poly) IsConst() (c int64, ok bool) {
	switch {
	case p.den != 1 || len(p.terms) > 1 || len(p.terms) == 1 && p.terms[0].key != 0:
		return 0, false
	case len(p.terms) == 0:
		return 0, true
	}
	return p.terms[0].num, true
}

// exp extracts variable i's exponent from a packed key.
func (p Poly) exp(key uint64, i int) int {
	return int(key >> (uint(i) * uint(p.w)) & (1<<p.w - 1))
}

// keyDegree returns the total degree of a packed key.
func (p Poly) keyDegree(key uint64) int {
	d := 0
	for i := 0; i < p.n; i++ {
		d += p.exp(key, i)
	}
	return d
}

// Degree returns the total degree of p, or -1 for the zero polynomial and
// an overflowed one.
func (p Poly) Degree() int {
	deg := -1
	for _, t := range p.terms {
		deg = max(deg, p.keyDegree(t.key))
	}
	return deg
}

// DegreeOf returns the maximum exponent of variable i in p.
func (p Poly) DegreeOf(i int) int {
	deg := 0
	for _, t := range p.terms {
		deg = max(deg, p.exp(t.key, i))
	}
	return deg
}

// Coeff returns the coefficient num/den, in lowest terms with den > 0, of
// the monomial with the given exponents; ok is false when p is overflowed.
func (p Poly) Coeff(exps []int) (num, den int64, ok bool) {
	if len(exps) != p.n {
		panic("poly: exponent vector length mismatch")
	}
	if p.Overflowed() {
		return 0, 0, false
	}
	var key uint64
	for i, e := range exps {
		if e < 0 {
			panic("poly: negative exponent")
		}
		if e >= 1<<p.w {
			return 0, 1, true // no term of p has it
		}
		key |= uint64(e) << (uint(i) * uint(p.w))
	}
	j := sort.Search(len(p.terms), func(j int) bool { return p.terms[j].key >= key })
	if j == len(p.terms) || p.terms[j].key != key {
		return 0, 1, true
	}
	num = p.terms[j].num
	g := int64(gcd(magnitude(num), uint64(p.den)))
	return num / g, p.den / g, true
}

// gcd returns the greatest common divisor of two magnitudes.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func magnitude(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

// content returns the greatest common divisor of x and p's numerators.
func (p Poly) content(x uint64) uint64 {
	for _, t := range p.terms {
		if x = gcd(x, magnitude(t.num)); x == 1 {
			break
		}
	}
	return x
}

// divided returns p's terms with every numerator divided by g, which
// divides them all.
func (p Poly) divided(g uint64) []term {
	if g == 1 {
		return p.terms
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		out[i] = term{key: t.key, num: t.num / int64(g)}
	}
	return out
}

// normalized builds the polynomial terms/den in p's space, dividing out
// the common factor of den and the numerators. It owns terms (which must
// be sorted, without zero numerators) and may modify it.
func (p Poly) normalized(terms []term, den int64) Poly {
	r := Poly{n: p.n, w: p.w, terms: terms, den: den}
	if len(terms) == 0 {
		r.den = 1
	} else if g := int64(r.content(uint64(den))); g != 1 {
		for i := range terms {
			terms[i].num /= g
		}
		r.den /= g
	}
	return r
}

// Add returns p + q. Both must share the same variable space.
func (p Poly) Add(q Poly) Poly { return p.addScaled(q, 1) }

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return p.addScaled(q, -1) }

// addScaled returns p + sign*q for sign = +-1.
func (p Poly) addScaled(q Poly, sign int64) Poly {
	p.mustMatch(q)
	switch {
	case p.Overflowed() || q.Overflowed():
		return p.overflowed()
	case len(q.terms) == 0:
		return p
	}
	// Bring both to the least common denominator: p's numerators scale by
	// fp, q's by fq (which carries the sign).
	fp, fq, den := int64(1), sign, p.den
	if p.den != q.den {
		g := int64(gcd(uint64(p.den), uint64(q.den)))
		fp, fq = q.den/g, sign*(p.den/g)
		var ok bool
		if den, ok = checked.Mul(p.den, fp); !ok {
			return p.overflowed()
		}
	}
	out := make([]term, 0, len(p.terms)+len(q.terms))
	a, b := p.terms, q.terms
	for len(a) > 0 || len(b) > 0 {
		var t term
		var x, y int64
		okx, oky := true, true
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].key < b[0].key):
			t.key = a[0].key
			x, okx = checked.Mul(a[0].num, fp)
			a = a[1:]
		case len(a) == 0 || b[0].key < a[0].key:
			t.key = b[0].key
			y, oky = checked.Mul(b[0].num, fq)
			b = b[1:]
		default:
			t.key = a[0].key
			x, okx = checked.Mul(a[0].num, fp)
			y, oky = checked.Mul(b[0].num, fq)
			a, b = a[1:], b[1:]
		}
		var oks bool
		if t.num, oks = checked.Add(x, y); !okx || !oky || !oks {
			return p.overflowed()
		}
		if t.num != 0 {
			out = append(out, t)
		}
	}
	return p.normalized(out, den)
}

// ScaleInt returns c * p.
func (p Poly) ScaleInt(c int64) Poly { return p.scale(c, 1) }

// scale returns (cn/cd) * p for cd > 0 and cn/cd in lowest terms. Each
// factor is cancelled against p's side of the fraction first, so the
// result comes out in lowest terms and overflows only when it does not fit.
func (p Poly) scale(cn, cd int64) Poly {
	switch {
	case p.Overflowed() || (cn == 1 && cd == 1):
		return p
	case cn == 0:
		return New(p.n)
	}
	g := int64(gcd(magnitude(cn), uint64(p.den)))
	h := int64(p.content(uint64(cd)))
	den, ok := checked.Mul(p.den/g, cd/h)
	if !ok {
		return p.overflowed()
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		if t.num, ok = checked.Mul(t.num/h, cn/g); !ok {
			return p.overflowed()
		}
		out[i] = t
	}
	return Poly{n: p.n, w: p.w, terms: out, den: den}
}

// carryMask has a bit at the bottom of every exponent field but the first,
// and just above the last field when that is inside the word: the positions
// a carry out of an overflowing field lands on.
func (p Poly) carryMask() uint64 {
	var m uint64
	for i := 1; i <= p.n; i++ {
		if s := uint(i) * uint(p.w); s < 64 {
			m |= 1 << s
		}
	}
	return m
}

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly {
	p.mustMatch(q)
	switch {
	case p.Overflowed() || q.Overflowed():
		return p.overflowed()
	case len(p.terms) == 0 || len(q.terms) == 0:
		return New(p.n)
	}
	if len(p.terms) > len(q.terms) {
		p, q = q, p // fewer, longer rows: fewer merge passes
	}
	// Cancel each denominator against the other side's numerators first:
	// by Gauss's lemma the product is then in lowest terms, so its
	// denominator overflows only when the result's does.
	gp, gq := p.content(uint64(q.den)), q.content(uint64(p.den))
	den, ok := checked.Mul(p.den/int64(gq), q.den/int64(gp))
	if !ok {
		return p.overflowed()
	}
	r := Poly{n: p.n, w: p.w, den: den}
	pt, qt := p.divided(gp), q.divided(gq)
	// Adding a fixed key to q's sorted keys keeps them sorted (no field
	// overflows, so keys add as integers): each row p_i * q is sorted and
	// is merged into the running sum.
	mask := p.carryMask()
	var acc, next []term
	row := make([]term, len(qt))
	for _, a := range pt {
		for j, b := range qt {
			k := a.key + b.key
			if (a.key^b.key^k)&mask != 0 || k < a.key {
				return p.overflowed()
			}
			c, ok := checked.Mul(a.num, b.num)
			if !ok {
				return p.overflowed()
			}
			row[j] = term{key: k, num: c}
		}
		if acc == nil {
			if len(pt) == 1 {
				r.terms = row
				return r
			}
			acc = append(make([]term, 0, len(pt)*len(qt)), row...)
			next = make([]term, 0, cap(acc))
			continue
		}
		next = next[:0]
		x, y := acc, row
		for len(x) > 0 || len(y) > 0 {
			switch {
			case len(y) == 0 || (len(x) > 0 && x[0].key < y[0].key):
				next = append(next, x[0])
				x = x[1:]
			case len(x) == 0 || y[0].key < x[0].key:
				next = append(next, y[0])
				y = y[1:]
			default:
				s, ok := checked.Add(x[0].num, y[0].num)
				if !ok {
					return p.overflowed()
				}
				if s != 0 {
					next = append(next, term{key: x[0].key, num: s})
				}
				x, y = x[1:], y[1:]
			}
		}
		acc, next = next, acc
	}
	r.terms = acc
	return r
}

// Pow returns p raised to the non-negative integer power k.
func (p Poly) Pow(k int) Poly {
	if k < 0 {
		panic("poly: negative exponent")
	}
	if p.Overflowed() {
		return p
	}
	r := ConstInt(p.n, 1)
	base := p
	for k > 0 {
		if k&1 == 1 {
			r = r.Mul(base)
		}
		k >>= 1
		if k > 0 {
			base = base.Mul(base)
		}
	}
	return r
}

// EvalInt64 evaluates p at an integer point. ok is false when the value is
// not an integer, when it or a term or partial sum on the way to it does
// not fit an int64, and when p is overflowed.
func (p Poly) EvalInt64(point []int64) (int64, bool) {
	if len(point) != p.n {
		panic("poly: evaluation point length mismatch")
	}
	if p.Overflowed() {
		return 0, false
	}
	var sum int64
	for _, t := range p.terms {
		v, ok := t.num, true
		for i, x := range point {
			for e := p.exp(t.key, i); e > 0 && ok; e-- {
				v, ok = checked.Mul(v, x)
			}
		}
		var oks bool
		if sum, oks = checked.Add(sum, v); !ok || !oks {
			return 0, false
		}
	}
	if sum%p.den != 0 {
		return 0, false
	}
	return sum / p.den, true
}

// split decomposes p by powers of variable i: p = sum_d parts[d] * x_i^d,
// where no part involves x_i. The zero polynomial has no parts.
func (p Poly) split(i int) []Poly {
	if len(p.terms) == 0 {
		return nil
	}
	// Terms sharing an exponent of x_i stay sorted when that field is
	// cleared, so one counting pass carves a single backing array.
	counts := make([]int, p.DegreeOf(i)+2)
	for _, t := range p.terms {
		counts[p.exp(t.key, i)+1]++
	}
	for d := 1; d < len(counts); d++ {
		counts[d] += counts[d-1]
	}
	slab := make([]term, len(p.terms))
	fill := append([]int(nil), counts...)
	clear := ^(uint64(1<<p.w-1) << (uint(i) * uint(p.w)))
	for _, t := range p.terms {
		d := p.exp(t.key, i)
		slab[fill[d]] = term{key: t.key & clear, num: t.num}
		fill[d]++
	}
	parts := make([]Poly, len(counts)-1)
	for d := range parts {
		parts[d] = p.normalized(slab[counts[d]:counts[d+1]:counts[d+1]], p.den)
	}
	return parts
}

// SubstPoly returns the polynomial obtained by substituting variable i with
// the polynomial q (in the same variable space as p).
func (p Poly) SubstPoly(i int, q Poly) Poly {
	p.mustMatch(q)
	if i < 0 || i >= p.n {
		panic("poly: substitution variable out of range")
	}
	if p.Overflowed() || q.Overflowed() {
		return p.overflowed()
	}
	// p = sum_d parts[d] * x_i^d, result = sum_d parts[d] * q^d, with q^d
	// maintained incrementally.
	result := New(p.n)
	qpow := ConstInt(p.n, 1)
	for d, part := range p.split(i) {
		if d > 0 {
			qpow = qpow.Mul(q)
		}
		if !part.IsZero() {
			result = result.Add(part.Mul(qpow))
		}
	}
	return result
}

// Resize returns p in a space of m variables; the first min(m, NumVars())
// keep their indices. It panics if p involves a variable it drops, and the
// result is overflowed when an exponent does not fit the new space's
// fields.
func (p Poly) Resize(m int) Poly {
	if m < 0 {
		panic("poly: negative variable count")
	}
	if m == p.n {
		return p
	}
	for i := m; i < p.n; i++ {
		if p.DegreeOf(i) > 0 {
			panic(fmt.Sprintf("poly: Resize(%d) drops variable %d, which p involves", m, i))
		}
	}
	r := New(m)
	if p.Overflowed() || p.maxExp() >= 1<<r.w {
		return r.overflowed()
	}
	// Repacking at another width keeps the order: keys compare
	// lexicographically from the highest variable either way.
	r.terms = make([]term, len(p.terms))
	r.den = p.den
	for j, t := range p.terms {
		var key uint64
		for i := 0; i < min(m, p.n); i++ {
			key |= uint64(p.exp(t.key, i)) << (uint(i) * uint(r.w))
		}
		r.terms[j] = term{key: key, num: t.num}
	}
	return r
}

// maxExp returns the largest exponent of any variable in p.
func (p Poly) maxExp() int {
	deg := 0
	for i := 0; i < p.n; i++ {
		deg = max(deg, p.DegreeOf(i))
	}
	return deg
}

// Equal reports whether p and q are identical polynomials. An overflowed
// polynomial equals none.
func (p Poly) Equal(q Poly) bool {
	return p.n == q.n && p.den != 0 && p.den == q.den && slices.Equal(p.terms, q.terms)
}

func (p Poly) mustMatch(q Poly) {
	if p.n != q.n {
		panic(fmt.Sprintf("poly: variable space mismatch (%d vs %d)", p.n, q.n))
	}
}

// String renders the polynomial with variables named x0, x1, ...
func (p Poly) String() string { return p.Format(nil) }

// Format renders the polynomial using the supplied variable names; a nil or
// short slice falls back to xN naming.
func (p Poly) Format(names []string) string {
	switch {
	case p.Overflowed():
		return "overflow"
	case len(p.terms) == 0:
		return "0"
	}
	// Sort by total degree descending, then by the exponents from the
	// first variable on, descending, so output is deterministic.
	terms := slices.Clone(p.terms)
	slices.SortFunc(terms, func(a, b term) int {
		if c := cmp.Compare(p.keyDegree(b.key), p.keyDegree(a.key)); c != 0 {
			return c
		}
		for i := 0; i < p.n; i++ {
			if c := cmp.Compare(p.exp(b.key, i), p.exp(a.key, i)); c != 0 {
				return c
			}
		}
		return 0
	})
	var sb strings.Builder
	for idx, t := range terms {
		if idx > 0 {
			if t.num > 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
			}
		} else if t.num < 0 {
			sb.WriteString("-")
		}
		mag := magnitude(t.num)
		g := gcd(mag, uint64(p.den))
		coef := strconv.FormatUint(mag/g, 10)
		if d := uint64(p.den) / g; d != 1 {
			coef += "/" + strconv.FormatUint(d, 10)
		}
		mono := p.monoString(t.key, names)
		switch {
		case mono == "":
			sb.WriteString(coef)
		case coef != "1":
			sb.WriteString(coef)
			sb.WriteString("*")
			fallthrough
		default:
			sb.WriteString(mono)
		}
	}
	return sb.String()
}

func (p Poly) monoString(key uint64, names []string) string {
	var parts []string
	for i := 0; i < p.n; i++ {
		e := p.exp(key, i)
		if e == 0 {
			continue
		}
		name := fmt.Sprintf("x%d", i)
		if i < len(names) && names[i] != "" {
			name = names[i]
		}
		if e == 1 {
			parts = append(parts, name)
		} else {
			parts = append(parts, fmt.Sprintf("%s^%d", name, e))
		}
	}
	return strings.Join(parts, "*")
}
