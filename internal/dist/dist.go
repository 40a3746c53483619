// Package dist provides the probability helpers used throughout the
// reproduction: exact log-factorials and binomial coefficients, the
// standard normal, the χ² goodness-of-fit statistic, the constant y(c, ℓ)
// of Proposition 4, and Wilson score confidence intervals for the
// Monte-Carlo harness.
package dist

import "math"

// logFactTableMax is the largest k whose ln k! LogFactorial reads from
// logFactTable. 2¹⁴ covers the binomial arguments of every quick-size
// experiment in 128 KiB; the table stays small because every process that
// links this package fills it, including agent-engine runs that never
// read it.
const logFactTableMax = 1 << 14

// logFactTable[k] = ln k! for 0 ≤ k ≤ logFactTableMax. It is filled once,
// at package initialization, by the very call LogFactorial makes above the
// table, and never written again.
var logFactTable [logFactTableMax + 1]float64

func init() {
	for k := range logFactTable {
		logFactTable[k], _ = math.Lgamma(float64(k) + 1)
	}
}

// LogFactorial returns ln k!, bit for bit equal to
// math.Lgamma(float64(k)+1) for every k (so +Inf for negative k): a table
// lookup for k ≤ 2¹⁴, the same Lgamma call above it. It can therefore
// stand in for any integer-argument Lgamma without changing a value.
func LogFactorial(k int64) float64 {
	if uint64(k) <= logFactTableMax {
		return logFactTable[k]
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return lg
}

// LogChoose returns log(n choose k) computed through log-factorials,
// stable for large n. It returns -Inf when k is outside [0, n].
func LogChoose(n, k int64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Choose returns (n choose k) as a float64. It overflows to +Inf for very
// large arguments; callers needing exactness should work in log space.
func Choose(n, k int64) float64 {
	return math.Exp(LogChoose(n, k))
}

// NormalCDF returns the standard normal cumulative distribution Φ(x).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), using the
// Beasley–Springer–Moro rational approximation refined with one Newton step.
// It panics outside (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("dist: NormalQuantile domain is (0,1)")
	}
	// Acklam/BSM-style rational approximation.
	var x float64
	switch {
	case p < 0.02425:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((-0.007784894002430293*q-0.3223964580411365)*q-2.400758277161838)*q-2.549732539343734)*q+4.374664141464968)*q + 2.938163982698783) /
			((((0.007784695709041462*q+0.3224671290700398)*q+2.445134137142996)*q+3.754408661907416)*q + 1)
	case p > 1-0.02425:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((-0.007784894002430293*q-0.3223964580411365)*q-2.400758277161838)*q-2.549732539343734)*q+4.374664141464968)*q + 2.938163982698783) /
			((((0.007784695709041462*q+0.3224671290700398)*q+2.445134137142996)*q+3.754408661907416)*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((-39.69683028665376*r+220.9460984245205)*r-275.9285104469687)*r+138.357751867269)*r-30.66479806614716)*r + 2.506628277459239) * q /
			(((((-54.47609879822406*r+161.5858368580409)*r-155.6989798598866)*r+66.80131188771972)*r-13.28068155288572)*r + 1)
	}
	// One Newton refinement: x -= (Φ(x)-p)/φ(x).
	pdf := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
	if pdf > 0 {
		x -= (NormalCDF(x) - p) / pdf
	}
	return x
}

// Prop4Y returns the constant y(c, ℓ) = 1 - (1-c)^{ℓ+1}/2 from the proof of
// Proposition 4: starting from X_t <= c·n, the next round satisfies
// X_{t+1} <= y·n except with probability exp(-2√n).
func Prop4Y(c float64, sampleSize int) float64 {
	if c < 0 || c > 1 {
		panic("dist: Prop4Y requires c in [0,1]")
	}
	a := math.Pow(1-c, float64(sampleSize)+1)
	return 1 - a/2
}

// WilsonInterval returns the Wilson score confidence interval for a
// binomial proportion with the given number of successes out of trials,
// at confidence level 1-alpha. It returns (0, 1) when trials == 0.
func WilsonInterval(successes, trials int64, alpha float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	z := NormalQuantile(1 - alpha/2)
	n := float64(trials)
	phat := float64(successes) / n
	denom := 1 + z*z/n
	center := (phat + z*z/(2*n)) / denom
	half := z * math.Sqrt(phat*(1-phat)/n+z*z/(4*n*n)) / denom
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}
