package checked

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// TestAgainstBig compares every operation with math/big on operands drawn
// around zero, around the int64 limits and around sqrt(2^63), where
// products straddle the overflow boundary.
func TestAgainstBig(t *testing.T) {
	anchors := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 3037000499, -3037000499, 1 << 31, -(1 << 31), 1 << 62}
	rng := rand.New(rand.NewSource(1))
	pick := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return anchors[rng.Intn(len(anchors))] + int64(rng.Intn(7)-3)
		case 1:
			return rng.Int63() - rng.Int63()
		}
		return int64(rng.Intn(2001) - 1000)
	}
	check := func(name string, a, b, got int64, ok bool, want *big.Int) {
		t.Helper()
		if ok != want.IsInt64() || (ok && got != want.Int64()) {
			t.Fatalf("%s(%d, %d) = %d, %v; exact %s", name, a, b, got, ok, want)
		}
	}
	for i := 0; i < 200000; i++ {
		a, b := pick(), pick()
		x, y := big.NewInt(a), big.NewInt(b)
		s, ok := Add(a, b)
		check("Add", a, b, s, ok, new(big.Int).Add(x, y))
		d, ok := Sub(a, b)
		check("Sub", a, b, d, ok, new(big.Int).Sub(x, y))
		p, ok := Mul(a, b)
		check("Mul", a, b, p, ok, new(big.Int).Mul(x, y))
	}
}
