// Package fit provides the small least-squares toolbox PolyUFC uses to
// derive model constants from micro-benchmark measurements: linear and
// hyperbolic (a/x + b) fits with R² quality reporting
// (Sec. V: curve fitting of miss penalty and peak power against uncore
// frequency).
package fit

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegenerate is returned when the system is under-determined.
var ErrDegenerate = errors.New("fit: degenerate system")

// Linear fits y = A*x + B, returning the coefficients and R².
func Linear(xs, ys []float64) (a, b, r2 float64, err error) {
	coef, r2, err := LeastSquares(xs, ys, func(x float64) []float64 {
		return []float64{x, 1}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return coef[0], coef[1], r2, nil
}

// Hyperbolic fits y = A/x + B (the paper's DRAM miss-penalty shape
// M(f) = a/f + b).
func Hyperbolic(xs, ys []float64) (a, b, r2 float64, err error) {
	for _, x := range xs {
		if x == 0 {
			return 0, 0, 0, fmt.Errorf("fit: hyperbolic fit with x = 0")
		}
	}
	coef, r2, err := LeastSquares(xs, ys, func(x float64) []float64 {
		return []float64{1 / x, 1}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return coef[0], coef[1], r2, nil
}

// LeastSquares solves min ||B c - y||² for an arbitrary basis expansion,
// via the normal equations with Gaussian elimination (partial pivoting).
func LeastSquares(xs, ys []float64, basis func(float64) []float64) ([]float64, float64, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, 0, fmt.Errorf("fit: need equal-length nonempty samples")
	}
	m := len(basis(xs[0]))
	if len(xs) < m {
		return nil, 0, ErrDegenerate
	}
	// Normal equations: (BᵀB) c = Bᵀ y.
	ata := make([][]float64, m)
	for i := range ata {
		ata[i] = make([]float64, m+1)
	}
	for k, x := range xs {
		row := basis(x)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][m] += row[i] * ys[k]
		}
	}
	coef, err := solve(ata)
	if err != nil {
		return nil, 0, err
	}
	// R².
	var meanY float64
	for _, y := range ys {
		meanY += y
	}
	meanY /= float64(len(ys))
	var ssRes, ssTot float64
	for k, x := range xs {
		row := basis(x)
		pred := 0.0
		for i, c := range coef {
			pred += c * row[i]
		}
		d := ys[k] - pred
		ssRes += d * d
		t := ys[k] - meanY
		ssTot += t * t
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 1e-12 {
		r2 = 0
	}
	return coef, r2, nil
}

// solve performs Gaussian elimination with partial pivoting on an
// augmented matrix [A | b].
func solve(aug [][]float64) ([]float64, error) {
	n := len(aug)
	for col := 0; col < n; col++ {
		// Pivot.
		best := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[best][col]) {
				best = r
			}
		}
		aug[col], aug[best] = aug[best], aug[col]
		if math.Abs(aug[col][col]) < 1e-12 {
			return nil, ErrDegenerate
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col] / aug[col][col]
			for c := col; c <= n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = aug[i][n] / aug[i][i]
	}
	return out, nil
}
