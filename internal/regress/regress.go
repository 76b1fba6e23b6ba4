// Package regress implements ordinary least-squares linear regression as
// used by the performance profiler (paper §IV-B, Eq. 1): a multiple linear
// regression of training time against model-parameter counts, and simple
// linear fits of time against data size. The solver uses the normal
// equations with Gaussian elimination and partial pivoting, which is ample
// for the profiler's tiny design matrices.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// Model is a fitted linear model y = β₀ + Σ βⱼ·xⱼ.
type Model struct {
	// Coef holds β₀ (intercept) followed by one coefficient per feature.
	Coef []float64
	// R2 is the coefficient of determination on the training data.
	R2 float64
	// Residuals holds y_i − ŷ_i for each training observation.
	Residuals []float64
}

// ErrSingular is returned when the normal equations are (numerically)
// singular, e.g. because of duplicated features or too few observations.
var ErrSingular = errors.New("regress: singular system (collinear features or too few observations)")

// Fit performs ordinary least squares of y on the rows of x, with an
// intercept term. x[i] is the feature vector of observation i; all rows
// must have equal length. It returns ErrSingular when XᵀX cannot be solved.
func Fit(x [][]float64, y []float64) (*Model, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: %d observations vs %d targets", n, len(y))
	}
	p := len(x[0]) + 1 // +1 for the intercept
	for i, row := range x {
		if len(row)+1 != p {
			return nil, fmt.Errorf("regress: row %d has %d features, want %d", i, len(row), p-1)
		}
	}
	if n < p {
		return nil, fmt.Errorf("regress: %d observations cannot determine %d coefficients", n, p)
	}

	// Normal equations: (XᵀX) β = Xᵀy with X = [1 | x].
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	feat := func(row []float64, j int) float64 {
		if j == 0 {
			return 1
		}
		return row[j-1]
	}
	for i := 0; i < n; i++ {
		for a := 0; a < p; a++ {
			fa := feat(x[i], a)
			xty[a] += float64(fa * y[i])
			for b := a; b < p; b++ {
				xtx[a][b] += float64(fa * feat(x[i], b))
			}
		}
	}
	for a := 1; a < p; a++ {
		for b := 0; b < a; b++ {
			xtx[a][b] = xtx[b][a]
		}
	}

	beta, err := SolveLinear(xtx, xty)
	if err != nil {
		return nil, err
	}

	m := &Model{Coef: beta, Residuals: make([]float64, n)}
	meanY := 0.0
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)
	ssRes, ssTot := 0.0, 0.0
	for i := 0; i < n; i++ {
		pred := m.Predict(x[i])
		m.Residuals[i] = y[i] - pred
		ssRes += float64(m.Residuals[i] * m.Residuals[i])
		d := y[i] - meanY
		ssTot += float64(d * d)
	}
	if ssTot > 0 {
		m.R2 = 1 - ssRes/ssTot
	} else {
		m.R2 = 1 // constant target fit exactly by the intercept
	}
	return m, nil
}

// Predict evaluates the model at the given feature vector.
func (m *Model) Predict(x []float64) float64 {
	if len(x)+1 != len(m.Coef) {
		panic(fmt.Sprintf("regress: predict with %d features, model has %d", len(x), len(m.Coef)-1))
	}
	y := m.Coef[0]
	for j, v := range x {
		y += float64(m.Coef[j+1] * v)
	}
	return y
}

// FitSimple fits y = β₀ + β₁·x for scalar predictors.
func FitSimple(x, y []float64) (*Model, error) {
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{v}
	}
	return Fit(rows, y)
}

// SolveLinear solves the dense system A·x = b using Gaussian elimination
// with partial pivoting. A is modified in place (callers pass fresh
// matrices). It returns ErrSingular when a pivot is numerically zero.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n != len(b) {
		return nil, fmt.Errorf("regress: matrix %d×? vs vector %d", n, len(b))
	}
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot: pick the largest magnitude in this column.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 { //fedlint:allow floateq — exact-zero pivot-column skip; any nonzero factor must eliminate
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			x[r] -= float64(f * x[col])
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= float64(a[col][c] * x[c])
		}
		x[col] = s / a[col][col]
	}
	return x, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}
