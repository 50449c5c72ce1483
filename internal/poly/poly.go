// Package poly implements exact multivariate polynomial arithmetic over the
// rationals, Bernoulli numbers, and Faulhaber (closed-form power-sum)
// summation. It is the counting back end of the polyhedral library: the
// cardinality of a loop-nest-form integer polytope is computed by summing
// polynomials symbolically, dimension by dimension, which is the role the
// barvinok library plays in the original PolyUFC implementation.
//
// A polynomial is stored in machine words — a sorted slice of terms with
// packed exponents and int64 numerators over one common denominator — for
// as long as every number fits. An operation that would overflow a
// coefficient or an exponent field redoes itself on the math/big form of
// its operands, and its result stays in that form (see DESIGN.md, "The
// counting back end").
package poly

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strings"

	"polyufc/internal/checked"
)

// term is one monomial of the machine-word form: num/den (den is the
// polynomial's) times the variables raised to the exponents packed in key,
// variable i in bits [i*w, (i+1)*w).
type term struct {
	key uint64
	num int64
}

// Poly is a polynomial in a fixed number of variables with rational
// coefficients. The zero value is not usable; construct values with New,
// Const, Var, or the arithmetic methods. Variables are identified by index
// in [0, N). Polynomials are immutable: all operations return new values.
type Poly struct {
	// n is the number of variables in the polynomial's space.
	n int
	// w is the width in bits of one packed exponent: 8 up to eight
	// variables, 64/n beyond.
	w uint8
	// terms holds the machine-word form, sorted by key with no zero
	// numerator; den > 0 is the common denominator, and gcd(den, every
	// numerator) = 1, so equal polynomials have equal representations.
	terms []term
	den   int64
	// big, when non-nil, holds the polynomial instead: an exponent key
	// (one byte per variable) maps to a nonzero coefficient.
	big map[string]*big.Rat
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

// Const returns the constant polynomial c in n variables.
func Const(n int, c *big.Rat) Poly {
	return ConstInt(n, 1).Scale(c)
}

// ConstInt returns the constant polynomial c in n variables.
func ConstInt(n int, c int64) Poly {
	p := New(n)
	if c != 0 {
		p.terms = []term{{num: c}}
	}
	return p
}

// Var returns the polynomial consisting of the single variable i.
func Var(n, i int) Poly {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("poly: variable %d out of range [0,%d)", i, n))
	}
	p := New(n)
	if p.w == 0 {
		key := make([]byte, n)
		key[i] = 1
		p.big = map[string]*big.Rat{string(key): big.NewRat(1, 1)}
		return p
	}
	p.terms = []term{{key: 1 << (uint(i) * uint(p.w)), num: 1}}
	return p
}

// NumVars reports the number of variables in p's space.
func (p Poly) NumVars() int { return p.n }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 && len(p.big) == 0 }

// IsConst reports whether p has no variable terms, and returns the constant.
func (p Poly) IsConst() (*big.Rat, bool) {
	if p.big != nil {
		switch len(p.big) {
		case 0:
			return new(big.Rat), true
		case 1:
			if c, ok := p.big[string(make([]byte, p.n))]; ok {
				return new(big.Rat).Set(c), true
			}
		}
		return nil, false
	}
	switch {
	case len(p.terms) == 0:
		return new(big.Rat), true
	case len(p.terms) == 1 && p.terms[0].key == 0:
		return big.NewRat(p.terms[0].num, p.den), true
	}
	return nil, false
}

// exp extracts variable i's exponent from a packed key.
func (p Poly) exp(key uint64, i int) int {
	return int(key >> (uint(i) * uint(p.w)) & (1<<p.w - 1))
}

// Degree returns the total degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	deg := -1
	for k := range p.big {
		d := 0
		for i := 0; i < p.n; i++ {
			d += int(k[i])
		}
		deg = max(deg, d)
	}
	for _, t := range p.terms {
		d := 0
		for i := 0; i < p.n; i++ {
			d += p.exp(t.key, i)
		}
		deg = max(deg, d)
	}
	return deg
}

// DegreeOf returns the maximum exponent of variable i in p.
func (p Poly) DegreeOf(i int) int {
	deg := 0
	for k := range p.big {
		deg = max(deg, int(k[i]))
	}
	for _, t := range p.terms {
		deg = max(deg, p.exp(t.key, i))
	}
	return deg
}

// Coeff returns the coefficient of the monomial with the given exponents.
func (p Poly) Coeff(exps []int) *big.Rat {
	if len(exps) != p.n {
		panic("poly: exponent vector length mismatch")
	}
	bkey := make([]byte, p.n)
	var key uint64
	fits := true
	for i, e := range exps {
		if e < 0 || e > 255 {
			panic("poly: exponent out of byte range")
		}
		bkey[i] = byte(e)
		if e >= 1<<p.w {
			fits = false
		} else {
			key |= uint64(e) << (uint(i) * uint(p.w))
		}
	}
	if p.big != nil {
		if c, ok := p.big[string(bkey)]; ok {
			return new(big.Rat).Set(c)
		}
		return new(big.Rat)
	}
	if fits {
		j := sort.Search(len(p.terms), func(j int) bool { return p.terms[j].key >= key })
		if j < len(p.terms) && p.terms[j].key == key {
			return big.NewRat(p.terms[j].num, p.den)
		}
	}
	return new(big.Rat)
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

// normalized builds the machine-word polynomial terms/den in p's space,
// dividing out the common factor of den and the numerators. It owns terms
// (which must be sorted, without zero numerators) and may modify it.
func (p Poly) normalized(terms []term, den int64) Poly {
	r := Poly{n: p.n, w: p.w, terms: terms, den: den}
	if len(terms) == 0 {
		r.den = 1
		return r
	}
	if den == 1 {
		return r
	}
	g := uint64(den)
	for _, t := range terms {
		if g = gcd(g, magnitude(t.num)); g == 1 {
			return r
		}
	}
	// g divides den <= MaxInt64, so it fits.
	for i := range terms {
		terms[i].num /= int64(g)
	}
	r.den /= int64(g)
	return r
}

// promote returns p's terms in the math/big form. The map is p's own when p
// is already promoted and must not be modified.
func (p Poly) promote() map[string]*big.Rat {
	if p.big != nil {
		return p.big
	}
	m := make(map[string]*big.Rat, len(p.terms))
	key := make([]byte, p.n)
	for _, t := range p.terms {
		for i := range key {
			key[i] = byte(p.exp(t.key, i))
		}
		m[string(key)] = big.NewRat(t.num, p.den)
	}
	return m
}

// promoted wraps a math/big term map as a polynomial in p's space.
func (p Poly) promoted(m map[string]*big.Rat) Poly {
	return Poly{n: p.n, w: p.w, big: m}
}

func addBigTerm(m map[string]*big.Rat, key string, c *big.Rat) {
	if c.Sign() == 0 {
		return
	}
	if old, ok := m[key]; ok {
		old.Add(old, c)
		if old.Sign() == 0 {
			delete(m, key)
		}
	} else {
		m[key] = new(big.Rat).Set(c)
	}
}

// Add returns p + q. Both must share the same variable space.
func (p Poly) Add(q Poly) Poly { return p.addScaled(q, 1) }

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return p.addScaled(q, -1) }

// addScaled returns p + sign*q for sign = +-1.
func (p Poly) addScaled(q Poly, sign int64) Poly {
	p.mustMatch(q)
	if p.big == nil && q.big == nil {
		if r, ok := p.addWords(q, sign); ok {
			return r
		}
	}
	pm, qm := p.promote(), q.promote()
	m := make(map[string]*big.Rat, len(pm)+len(qm))
	for k, c := range pm {
		m[k] = new(big.Rat).Set(c)
	}
	tmp, s := new(big.Rat), big.NewRat(sign, 1)
	for k, c := range qm {
		addBigTerm(m, k, tmp.Mul(c, s))
	}
	return p.promoted(m)
}

func (p Poly) addWords(q Poly, sign int64) (Poly, bool) {
	if len(q.terms) == 0 {
		return p, true
	}
	// Bring both to the least common denominator: p's numerators scale by
	// fp, q's by fq (which carries the sign).
	fp, fq, den := int64(1), sign, p.den
	if p.den != q.den {
		g := int64(gcd(uint64(p.den), uint64(q.den)))
		fp, fq = q.den/g, sign*(p.den/g)
		var ok bool
		if den, ok = checked.Mul(p.den, fp); !ok {
			return Poly{}, false
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
			return Poly{}, false
		}
		if t.num != 0 {
			out = append(out, t)
		}
	}
	return p.normalized(out, den), true
}

// Neg returns -p.
func (p Poly) Neg() Poly { return p.ScaleInt(-1) }

// Scale returns c * p.
func (p Poly) Scale(c *big.Rat) Poly {
	if c.Sign() == 0 {
		return New(p.n)
	}
	if p.big == nil && c.Num().IsInt64() {
		// An integer's Denom() allocates; take 1 directly.
		cd, ok := int64(1), true
		if !c.IsInt() {
			cd, ok = c.Denom().Int64(), c.Denom().IsInt64()
		}
		if ok {
			if r, ok := p.scaleWords(c.Num().Int64(), cd); ok {
				return r
			}
		}
	}
	pm := p.promote()
	m := make(map[string]*big.Rat, len(pm))
	for k, co := range pm {
		m[k] = new(big.Rat).Mul(co, c)
	}
	return p.promoted(m)
}

// scaleWords returns (cn/cd) * p for cn != 0, cd > 0.
func (p Poly) scaleWords(cn, cd int64) (Poly, bool) {
	if cn == 1 && cd == 1 {
		return p, true
	}
	// Cancel cn against p.den first, so fewer products overflow.
	g := int64(gcd(magnitude(cn), uint64(p.den)))
	cn /= g
	den, ok := checked.Mul(p.den/g, cd)
	if !ok {
		return Poly{}, false
	}
	out := make([]term, len(p.terms))
	for i, t := range p.terms {
		if t.num, ok = checked.Mul(t.num, cn); !ok {
			return Poly{}, false
		}
		out[i] = t
	}
	return p.normalized(out, den), true
}

// ScaleInt returns c * p.
func (p Poly) ScaleInt(c int64) Poly {
	if c == 0 {
		return New(p.n)
	}
	if p.big == nil {
		if r, ok := p.scaleWords(c, 1); ok {
			return r
		}
	}
	return p.Scale(big.NewRat(c, 1))
}

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly {
	p.mustMatch(q)
	if p.big == nil && q.big == nil {
		if r, ok := p.mulWords(q); ok {
			return r
		}
	}
	m := map[string]*big.Rat{}
	tmp := new(big.Rat)
	key := make([]byte, p.n)
	qm := q.promote()
	for k1, c1 := range p.promote() {
		for k2, c2 := range qm {
			for i := 0; i < p.n; i++ {
				e := int(k1[i]) + int(k2[i])
				if e > 255 {
					panic("poly: exponent overflow in Mul")
				}
				key[i] = byte(e)
			}
			addBigTerm(m, string(key), tmp.Mul(c1, c2))
		}
	}
	return p.promoted(m)
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

func (p Poly) mulWords(q Poly) (Poly, bool) {
	if len(p.terms) == 0 || len(q.terms) == 0 {
		return New(p.n), true
	}
	if len(p.terms) > len(q.terms) {
		p, q = q, p // fewer, longer rows: fewer merge passes
	}
	den, ok := checked.Mul(p.den, q.den)
	if !ok {
		return Poly{}, false
	}
	// Adding a fixed key to q's sorted keys keeps them sorted (no field
	// overflows, so keys add as integers): each row p_i * q is sorted and
	// is merged into the running sum.
	mask := p.carryMask()
	var acc, next []term
	row := make([]term, len(q.terms))
	for _, a := range p.terms {
		for j, b := range q.terms {
			k := a.key + b.key
			if (a.key^b.key^k)&mask != 0 || k < a.key {
				return Poly{}, false
			}
			c, ok := checked.Mul(a.num, b.num)
			if !ok {
				return Poly{}, false
			}
			row[j] = term{key: k, num: c}
		}
		if acc == nil {
			if len(p.terms) == 1 {
				return p.normalized(row, den), true
			}
			acc = append(make([]term, 0, len(p.terms)*len(q.terms)), row...)
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
					return Poly{}, false
				}
				if s != 0 {
					next = append(next, term{key: x[0].key, num: s})
				}
				x, y = x[1:], y[1:]
			}
		}
		acc, next = next, acc
	}
	return p.normalized(acc, den), true
}

// Pow returns p raised to the non-negative integer power k.
func (p Poly) Pow(k int) Poly {
	if k < 0 {
		panic("poly: negative exponent")
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

// Eval evaluates p at the given rational point.
func (p Poly) Eval(point []*big.Rat) *big.Rat {
	if len(point) != p.n {
		panic("poly: evaluation point length mismatch")
	}
	sum := new(big.Rat)
	term := new(big.Rat)
	for k, c := range p.promote() {
		term.Set(c)
		for i := 0; i < p.n; i++ {
			for e := 0; e < int(k[i]); e++ {
				term.Mul(term, point[i])
			}
		}
		sum.Add(sum, term)
	}
	return sum
}

// EvalInt evaluates p at an integer point.
func (p Poly) EvalInt(point []int64) *big.Rat {
	rats := make([]*big.Rat, len(point))
	for i, v := range point {
		rats[i] = big.NewRat(v, 1)
	}
	return p.Eval(rats)
}

// EvalInt64 evaluates p at an integer point and returns the result as an
// int64, reporting whether the value was an integer that fits.
func (p Poly) EvalInt64(point []int64) (int64, bool) {
	r := p.EvalInt(point)
	if !r.IsInt() {
		return 0, false
	}
	n := r.Num()
	if !n.IsInt64() {
		return 0, false
	}
	return n.Int64(), true
}

// split decomposes p by powers of variable i: p = sum_d parts[d] * x_i^d,
// where no part involves x_i. The zero polynomial has no parts.
func (p Poly) split(i int) []Poly {
	if p.big != nil {
		if len(p.big) == 0 {
			return nil
		}
		parts := make([]Poly, p.DegreeOf(i)+1)
		for d := range parts {
			parts[d] = p.promoted(map[string]*big.Rat{})
		}
		for k, c := range p.big {
			rest := []byte(k)
			rest[i] = 0
			parts[k[i]].big[string(rest)] = c
		}
		return parts
	}
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

// ExtendVars returns p re-expressed in a space with m >= p.NumVars()
// variables; the original variables keep their indices.
func (p Poly) ExtendVars(m int) Poly {
	if m < p.n {
		panic("poly: ExtendVars cannot shrink the space")
	}
	if m == p.n {
		return p
	}
	r := New(m)
	if p.big == nil && p.maxExp() < 1<<r.w {
		// Repacking at a narrower width keeps the order: keys compare
		// lexicographically from the highest variable either way.
		r.terms = make([]term, len(p.terms))
		r.den = p.den
		for j, t := range p.terms {
			var key uint64
			for i := 0; i < p.n; i++ {
				key |= uint64(p.exp(t.key, i)) << (uint(i) * uint(r.w))
			}
			r.terms[j] = term{key: key, num: t.num}
		}
		return r
	}
	r.big = map[string]*big.Rat{}
	for k, c := range p.promote() {
		key := make([]byte, m)
		copy(key, k)
		r.big[string(key)] = c
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

// Equal reports whether p and q are identical polynomials.
func (p Poly) Equal(q Poly) bool {
	if p.n != q.n {
		return false
	}
	if p.big == nil && q.big == nil {
		return p.den == q.den && slices.Equal(p.terms, q.terms)
	}
	pm, qm := p.promote(), q.promote()
	if len(pm) != len(qm) {
		return false
	}
	for k, c := range pm {
		c2, ok := qm[k]
		if !ok || c.Cmp(c2) != 0 {
			return false
		}
	}
	return true
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
	terms := p.promote()
	if len(terms) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(terms))
	for k := range terms {
		keys = append(keys, k)
	}
	// Sort by total degree descending, then lexicographically, so output is
	// deterministic.
	sort.Slice(keys, func(a, b int) bool {
		da, db := 0, 0
		for i := 0; i < p.n; i++ {
			da += int(keys[a][i])
			db += int(keys[b][i])
		}
		if da != db {
			return da > db
		}
		return keys[a] > keys[b]
	})
	var sb strings.Builder
	for idx, k := range keys {
		c := terms[k]
		if idx > 0 {
			if c.Sign() >= 0 {
				sb.WriteString(" + ")
			} else {
				sb.WriteString(" - ")
			}
		} else if c.Sign() < 0 {
			sb.WriteString("-")
		}
		abs := new(big.Rat).Abs(c)
		mono := monoString(k, p.n, names)
		if mono == "" {
			sb.WriteString(abs.RatString())
		} else {
			if abs.Cmp(big.NewRat(1, 1)) != 0 {
				sb.WriteString(abs.RatString())
				sb.WriteString("*")
			}
			sb.WriteString(mono)
		}
	}
	return sb.String()
}

func monoString(key string, n int, names []string) string {
	var parts []string
	for i := 0; i < n; i++ {
		e := int(key[i])
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
