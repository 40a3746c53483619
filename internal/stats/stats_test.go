package stats

import (
	"errors"
	"math"
	"testing"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, math.Sqrt(2.5))
	}
	if s.Q25 != 2 || s.Q75 != 4 {
		t.Errorf("quartiles = %v, %v", s.Q25, s.Q75)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Summarize reordered the input")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30}
	tests := []struct{ q, want float64 }{
		{0, 0}, {1, 30}, {0.5, 15}, {1.0 / 3, 10},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	for _, bad := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", bad)
				}
			}()
			Quantile(sorted, bad)
		}()
	}
}

func TestFitLinearExact(t *testing.T) {
	// y = 2 + 3x.
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{2, 5, 8, 11, 14}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 1e-12 || math.Abs(fit.Intercept-2) > 1e-12 {
		t.Errorf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Errorf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("short fit error = %v", err)
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitPowerExact(t *testing.T) {
	// y = 5 x^1.7.
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 5 * math.Pow(x[i], 1.7)
	}
	fit, err := FitPower(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Exponent-1.7) > 1e-9 || math.Abs(fit.Coeff-5) > 1e-8 {
		t.Errorf("power fit = %+v", fit)
	}
}

func TestFitPowerRejectsNonPositive(t *testing.T) {
	if _, err := FitPower([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("zero x accepted")
	}
	if _, err := FitPower([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Error("negative y accepted")
	}
}

func TestFitLinearRecoversNoisyLine(t *testing.T) {
	// Deterministic "noise" with zero mean; slope should be recovered
	// closely.
	var x, y []float64
	for i := 0; i < 100; i++ {
		xi := float64(i)
		noise := 0.5 * math.Sin(float64(i)*1.7)
		x = append(x, xi)
		y = append(y, 1+0.5*xi+noise)
	}
	fit, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-0.5) > 0.01 {
		t.Errorf("slope = %v, want ~0.5", fit.Slope)
	}
	if fit.R2 < 0.99 {
		t.Errorf("R2 = %v", fit.R2)
	}
}

func TestFloat64s(t *testing.T) {
	fs := Float64s([]int64{4, 5})
	if len(fs) != 2 || fs[0] != 4 || fs[1] != 5 {
		t.Errorf("Float64s = %v", fs)
	}
}
