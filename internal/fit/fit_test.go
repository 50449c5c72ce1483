package fit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %g, want %g (tol %g)", name, got, want, tol)
	}
}

func TestLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	a, b, r2, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a", a, 3, 1e-9)
	approx(t, "b", b, -7, 1e-9)
	approx(t, "r2", r2, 1, 1e-9)
}

func TestLinearNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := float64(i) / 10
		xs = append(xs, x)
		ys = append(ys, 2.5*x+4+r.NormFloat64()*0.1)
	}
	a, b, r2, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a", a, 2.5, 0.02)
	approx(t, "b", b, 4, 0.1)
	if r2 < 0.99 {
		t.Fatalf("r2 = %f", r2)
	}
}

func TestQuadraticExact(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 1.5*x*x - 2*x + 0.5
	}
	coef, r2, err := LeastSquares(xs, ys, func(x float64) []float64 {
		return []float64{x * x, x, 1}
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a", coef[0], 1.5, 1e-9)
	approx(t, "b", coef[1], -2, 1e-9)
	approx(t, "c", coef[2], 0.5, 1e-9)
	approx(t, "r2", r2, 1, 1e-9)
}

func TestHyperbolicExact(t *testing.T) {
	// The paper's DRAM miss-penalty shape: M(f) = a/f + b.
	xs := []float64{1.2, 1.6, 2.0, 2.4, 2.8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 40/x + 55
	}
	a, b, r2, err := Hyperbolic(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "a", a, 40, 1e-9)
	approx(t, "b", b, 55, 1e-9)
	approx(t, "r2", r2, 1, 1e-9)
}

func TestHyperbolicRejectsZero(t *testing.T) {
	if _, _, _, err := Hyperbolic([]float64{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for x=0")
	}
}

// TestPolynomialRoundTrip recovers a cubic through LeastSquares with a
// four-term basis.
func TestPolynomialRoundTrip(t *testing.T) {
	coef := []float64{0.25, 0.5, -2, 1} // x³ down to x⁰
	cubic := func(x float64) []float64 { return []float64{x * x * x, x * x, x, 1} }
	var xs, ys []float64
	for i := -5; i <= 5; i++ {
		x := float64(i)
		var y float64
		for k, b := range cubic(x) {
			y += coef[k] * b
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	got, r2, err := LeastSquares(xs, ys, cubic)
	if err != nil {
		t.Fatal(err)
	}
	for i := range coef {
		approx(t, "coef", got[i], coef[i], 1e-6)
	}
	approx(t, "r2", r2, 1, 1e-9)
}

func TestDegenerateDetected(t *testing.T) {
	if _, _, _, err := Linear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("expected degenerate error for constant x")
	}
	if _, _, _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for underdetermined system")
	}
}

func TestPropertyLinearRecovery(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.Float64()*10 - 5
		b := r.Float64()*20 - 10
		var xs, ys []float64
		for i := 0; i < 20; i++ {
			x := r.Float64()*10 + 0.1
			xs = append(xs, x)
			ys = append(ys, a*x+b)
		}
		ga, gb, r2, err := Linear(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(ga-a) < 1e-6 && math.Abs(gb-b) < 1e-6 && r2 > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
