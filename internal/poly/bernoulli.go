package poly

import (
	"math/big"
	"sync"
)

// bernoulliCache memoizes Bernoulli numbers (B+ convention, B1 = +1/2).
var bernoulliCache struct {
	sync.Mutex
	vals []*big.Rat
}

// Bernoulli returns the n-th Bernoulli number using the convention
// B1 = +1/2 (the "B+" numbers), which is the convention under which
// Faulhaber's formula takes the form used by SumPow.
func Bernoulli(n int) *big.Rat {
	if n < 0 {
		panic("poly: negative Bernoulli index")
	}
	bernoulliCache.Lock()
	defer bernoulliCache.Unlock()
	for len(bernoulliCache.vals) <= n {
		m := len(bernoulliCache.vals)
		if m == 0 {
			bernoulliCache.vals = append(bernoulliCache.vals, big.NewRat(1, 1))
			continue
		}
		// B+_m = 1 - sum_{k=0}^{m-1} C(m,k) B+_k / (m-k+1)
		// derived from sum_{k=0}^{m} C(m+1,k) B-_k = 0 adjusted for B+;
		// equivalently use the recurrence for B- and flip the sign of B1.
		// We compute B- via: sum_{j=0}^{m} C(m+1, j) B-_j = 0, m >= 1.
		sum := new(big.Rat)
		c := big.NewInt(1) // C(m+1, j), starting at j=0
		mp1 := big.NewInt(int64(m + 1))
		for j := 0; j < m; j++ {
			bj := new(big.Rat).Set(bernoulliCache.vals[j])
			if j == 1 {
				bj.Neg(bj) // stored as B+, recurrence needs B-
			}
			term := new(big.Rat).Mul(bj, new(big.Rat).SetInt(c))
			sum.Add(sum, term)
			// C(m+1, j+1) = C(m+1, j) * (m+1-j) / (j+1)
			c.Mul(c, new(big.Int).Sub(mp1, big.NewInt(int64(j))))
			c.Quo(c, big.NewInt(int64(j+1)))
		}
		bm := new(big.Rat).Quo(sum.Neg(sum), new(big.Rat).SetInt(c))
		if m == 1 {
			bm.Neg(bm) // convert B-_1 = -1/2 to B+_1 = +1/2
		}
		bernoulliCache.vals = append(bernoulliCache.vals, bm)
	}
	return new(big.Rat).Set(bernoulliCache.vals[n])
}

// frac is a rational num/den in lowest terms with den > 0.
type frac struct{ num, den int64 }

// faulhaberCache memoizes the coefficients of the Faulhaber polynomials:
// every summation of a given degree reads the same few rationals.
var faulhaberCache struct {
	sync.Mutex
	coefs [][]frac
}

// faulhaber returns the coefficients of S_k: f[j] multiplies n^j, for
// j = 0..k+1 (f[0] is zero). It returns nil when a coefficient does not fit
// int64. The slice is shared and must not be modified.
func faulhaber(k int) []frac {
	faulhaberCache.Lock()
	defer faulhaberCache.Unlock()
	for d := len(faulhaberCache.coefs); d <= k; d++ {
		// S_d(n) = 1/(d+1) * sum_{j=0}^{d} C(d+1, j) B+_j n^{d+1-j}
		f := make([]frac, d+2)
		f[0] = frac{0, 1}
		c := big.NewInt(1) // C(d+1, j)
		dp1 := big.NewInt(int64(d + 1))
		for j := 0; j <= d; j++ {
			coef := new(big.Rat).Mul(new(big.Rat).SetInt(c), Bernoulli(j))
			coef.Quo(coef, new(big.Rat).SetInt(dp1))
			if !coef.Num().IsInt64() || !coef.Denom().IsInt64() {
				f = nil
				break
			}
			f[d+1-j] = frac{coef.Num().Int64(), coef.Denom().Int64()}
			c.Mul(c, new(big.Int).Sub(dp1, big.NewInt(int64(j))))
			c.Quo(c, big.NewInt(int64(j+1)))
		}
		faulhaberCache.coefs = append(faulhaberCache.coefs, f)
	}
	return faulhaberCache.coefs[k]
}

// SumPow returns the Faulhaber polynomial S_k in one variable n such that
// S_k(n) = sum_{x=1}^{n} x^k for all integers n >= 0, and, as a polynomial
// identity, S_k(n) - S_k(n-1) = n^k for every integer n. The latter makes
// the telescoping identity sum_{x=L}^{U} x^k = S_k(U) - S_k(L-1) valid for
// arbitrary integer bounds with U >= L-1. It is overflowed when a
// coefficient does not fit int64.
func SumPow(k int) Poly {
	if k < 0 {
		panic("poly: negative power in SumPow")
	}
	res := New(1)
	f := faulhaber(k)
	if f == nil {
		return res.overflowed()
	}
	pow := ConstInt(1, 1)
	for _, c := range f {
		res = res.Add(pow.scale(c.num, c.den))
		pow = pow.Mul(Var(1, 0))
	}
	return res
}

// SumVar computes the symbolic sum of p over variable i ranging from L to U
// inclusive: sum_{x_i = L}^{U} p. L and U are polynomials in the same
// variable space that must not involve variable i. The result no longer
// involves variable i (its coefficient space is unchanged). The identity is
// exact for all integer values with U >= L - 1; callers are responsible for
// restricting evaluation to regions where U >= L (the value at U = L-1 is 0).
func SumVar(p Poly, i int, L, U Poly) Poly {
	if L.DegreeOf(i) > 0 || U.DegreeOf(i) > 0 {
		panic("poly: summation bounds must not involve the summed variable")
	}
	n := p.n
	if L.n != n || U.n != n {
		panic("poly: bound variable space mismatch")
	}
	if p.Overflowed() || L.Overflowed() || U.Overflowed() {
		return p.overflowed()
	}
	// p = sum_d parts[d] * x_i^d sums to
	// sum_d parts[d] * (S_d(U) - S_d(L-1)), and
	// S_d(U) - S_d(L-1) = sum_j f_d[j] * (U^j - (L-1)^j): the power
	// differences are shared by every degree.
	parts := p.split(i)
	Lm1 := L.Sub(ConstInt(n, 1))
	diffs := make([]Poly, len(parts)+1) // diffs[0] is never read: f_d[0] = 0
	upow, lpow := ConstInt(n, 1), ConstInt(n, 1)
	for j := 1; j < len(diffs); j++ {
		upow, lpow = upow.Mul(U), lpow.Mul(Lm1)
		diffs[j] = upow.Sub(lpow)
	}
	result := New(n)
	for d, part := range parts {
		if part.IsZero() {
			continue
		}
		f := faulhaber(d)
		if f == nil {
			return p.overflowed()
		}
		span := New(n)
		for j, c := range f {
			if c.num != 0 {
				span = span.Add(diffs[j].scale(c.num, c.den))
			}
		}
		result = result.Add(part.Mul(span))
	}
	return result
}
