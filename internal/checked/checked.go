// Package checked provides overflow-detecting int64 arithmetic for the
// exact polyhedral back end, whose policy is that an overflow anywhere in
// counting means "not countable here": internal/poly returns an overflowed
// polynomial, internal/isl's counter then answers ErrNotCountable so that
// bounded enumeration answers, and its Fourier–Motzkin core falls back to
// the sound answer (projection not exact, set not known empty). No
// math/big fallback is kept, because kernel-sized counts do not overflow:
// over 37 kernels x {BDW, RPL} x {test, bench, full} x 10 tiling choices,
// no polynomial operation does.
package checked

import "math/bits"

// Add returns a + b and whether the sum fits an int64.
func Add(a, b int64) (int64, bool) {
	c := a + b
	return c, (a^c)&(b^c) >= 0
}

// Mul returns a * b and whether the product fits an int64.
func Mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// Correct the unsigned high word to the signed one.
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	// The 128-bit product fits iff its high word is the sign extension of
	// the low word.
	return int64(lo), hi == uint64(int64(lo)>>63)
}

// Sub returns a - b and whether the difference fits an int64.
func Sub(a, b int64) (int64, bool) {
	c := a - b
	return c, (a^b)&(a^c) >= 0
}
