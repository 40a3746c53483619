// Package stats provides the estimators the benchmark harness reports:
// summaries with quantiles, least-squares fits (notably log–log power-law
// fits for scaling-exponent estimation, the finite-n proxy for the paper's
// asymptotic statements).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrTooFewPoints is returned by fits with fewer than two usable points.
var ErrTooFewPoints = errors.New("stats: need at least two points")

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	Median, Q25, Q75 float64
	P90, P99         float64
}

// Summarize computes a Summary. An empty input yields the zero Summary.
// The input slice is not modified.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Median: Quantile(sorted, 0.5),
		Q25:    Quantile(sorted, 0.25),
		Q75:    Quantile(sorted, 0.75),
		P90:    Quantile(sorted, 0.90),
		P99:    Quantile(sorted, 0.99),
	}
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range sorted {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Quantile returns the q-th quantile of an ascending-sorted sample using
// linear interpolation. It panics if q is outside [0, 1] or the sample is
// empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is an ordinary-least-squares line y = Intercept + Slope·x.
type LinearFit struct {
	Slope, Intercept float64
	// R2 is the coefficient of determination in [0, 1].
	R2 float64
}

// FitLinear fits y = a + b·x by least squares.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return LinearFit{}, ErrTooFewPoints
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	denom := n*sxx - sx*sx
	//bitlint:floatexact divide-by-zero guard; tiny nonzero variance still yields a finite (if noisy) fit
	if denom == 0 {
		return LinearFit{}, errors.New("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := intercept + slope*x[i]
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// PowerFit is a power law y = Coeff · x^Exponent fitted in log–log space.
// The harness uses it to estimate convergence-time scaling exponents: the
// Theorem 1 prediction for constant ℓ is an exponent close to 1, the [15]
// prediction for ℓ = √(n log n) an exponent close to 0.
type PowerFit struct {
	Exponent, Coeff float64
	R2              float64
}

// FitPower fits y ≈ c·x^e through log–log least squares. All points must
// be strictly positive.
func FitPower(x, y []float64) (PowerFit, error) {
	if len(x) != len(y) {
		return PowerFit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return PowerFit{}, fmt.Errorf("stats: FitPower needs positive data (point %d: %v, %v)", i, x[i], y[i])
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, math.Log(y[i]))
	}
	lin, err := FitLinear(lx, ly)
	if err != nil {
		return PowerFit{}, err
	}
	return PowerFit{
		Exponent: lin.Slope,
		Coeff:    math.Exp(lin.Intercept),
		R2:       lin.R2,
	}, nil
}

// Float64s converts an int64 sample for the float-based estimators.
func Float64s(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
