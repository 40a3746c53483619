package rng

import (
	"math"

	"bitspread/internal/dist"
)

// binvThreshold is the n·p value below which plain inversion (BINV) is used.
// Above it, Hörmann's BTRS transformed-rejection sampler takes over. The
// usual crossover in the literature is 10–30; 10 keeps the inversion loop
// short while staying well inside BTRS's validity region (n·p ≥ 10).
const binvThreshold = 10

// Binomial returns an exact sample from Binomial(n, p): the number of
// successes in n independent trials each succeeding with probability p.
//
// The sampler is exact in distribution (no normal approximation):
//   - n·min(p,1−p) < binvThreshold: sequential inversion (BINV),
//   - otherwise: BTRS, Hörmann's transformed rejection with squeeze,
//     which has O(1) expected time uniformly in n and p.
//
// It panics if n < 0 or p is NaN. p is clamped to [0, 1].
func (r *RNG) Binomial(n int64, p float64) int64 {
	switch {
	case n < 0:
		panic("rng: Binomial called with negative n")
	case math.IsNaN(p):
		panic("rng: Binomial called with NaN p")
	case n == 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	if p > 0.5 {
		return n - r.binomialSmallP(n, 1-p)
	}
	return r.binomialSmallP(n, p)
}

// binomialSmallP samples Binomial(n, p) for 0 < p <= 0.5.
func (r *RNG) binomialSmallP(n int64, p float64) int64 {
	if float64(n)*p < binvThreshold {
		return r.binomialInversion(n, p)
	}
	return r.binomialBTRS(n, p)
}

// binomialInversion is the classical BINV algorithm: walk the pmf from k=0,
// subtracting successive probabilities from a single uniform. Expected time
// is O(n·p + 1), so it is only used when n·p is small.
func (r *RNG) binomialInversion(n int64, p float64) int64 {
	q := 1 - p
	s := p / q
	// qn = q^n computed in log space to stay accurate for large n.
	qn := math.Exp(float64(n) * math.Log1p(-p))
	for {
		u := r.Float64()
		pr := qn
		var k int64
		for u > pr {
			u -= pr
			k++
			if k > n {
				break // float round-off exhausted the mass; retry
			}
			pr *= (float64(n-k+1) / float64(k)) * s
		}
		if k <= n {
			return k
		}
	}
}

// binomialBTRS implements the BTRS algorithm of W. Hörmann,
// "The generation of binomial random variates" (J. Statist. Comput.
// Simulation 46, 1993), valid for p <= 0.5 and n·p >= 10. The dominating
// density is a transformed triangle; a cheap squeeze accepts about 79% of
// candidates at large n·p (0.86 × 0.92), fewer near n·p = 10, without
// evaluating the pmf.
//
// The constants only the full acceptance test needs (alpha, log(p/q), the
// mode and its log-pmf term) are computed when a candidate first misses
// the squeeze; most draws never do. Computing them late, and reading
// ln k! from dist.LogFactorial (bit-equal to Lgamma(k+1)), changes no
// value, so the draws and the stream consumption are unaffected.
func (r *RNG) binomialBTRS(n int64, p float64) int64 {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	var alpha, lpq, m, h float64
	haveTest := false
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + c)
		if kf < 0 || kf > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int64(kf) // inside the squeeze: accept immediately
		}
		if !haveTest {
			alpha = (2.83 + 5.1/b) * spq
			lpq = math.Log(p / q)
			m = math.Floor((nf + 1) * p) // mode
			h = dist.LogFactorial(int64(m)) + dist.LogFactorial(int64(nf-m))
			haveTest = true
		}
		// Full acceptance test against the binomial pmf in log space.
		v2 := math.Log(v * alpha / (a/(us*us) + b))
		lk := dist.LogFactorial(int64(kf))
		lnk := dist.LogFactorial(int64(nf - kf))
		if v2 <= h-lk-lnk+(kf-m)*lpq {
			return int64(kf)
		}
	}
}

// Hypergeometric returns a sample of the number of marked items in a
// uniform draw of k items without replacement from a population of n items
// of which marked are marked. It is exact and runs in O(k) time via the
// sequential conditional-Bernoulli construction; fault.Schedule's
// count-level perturbation uses it to draw how many of the agents a reset,
// churn or stubborn event picks held a one.
//
// It panics if any argument is negative, or if marked > n or k > n.
func (r *RNG) Hypergeometric(n, marked, k int64) int64 {
	if n < 0 || marked < 0 || k < 0 || marked > n || k > n {
		panic("rng: Hypergeometric called with invalid parameters")
	}
	var got int64
	remaining := n
	left := marked
	for i := int64(0); i < k; i++ {
		if left == 0 {
			break
		}
		if r.Float64() < float64(left)/float64(remaining) {
			got++
			left--
		}
		remaining--
	}
	return got
}
