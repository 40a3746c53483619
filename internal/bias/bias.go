// Package bias implements the paper's central analytical object: the bias
// function of Eq. 3,
//
//	F_n(p) = -p + Σ_{k=0}^{ℓ} C(ℓ,k) p^k (1-p)^{ℓ-k} (p·g^[1](k) + (1-p)·g^[0](k)),
//
// a polynomial of degree at most ℓ+1 measuring a protocol's expected
// one-round push toward opinion 1 when the current fraction of ones is p
// (Proposition 5: E[X_{t+1}|X_t=x] = x + n·F(x/n) ± 1).
//
// The lower-bound proof of Theorem 12 hinges on F's root structure in
// [0, 1]: because ℓ is constant, F has a constant number of roots, and the
// sign of F on the interval adjacent to p = 1 decides which of the two slow
// cases applies. This package constructs F exactly from a Rule, isolates
// its roots, classifies the protocol into the three proof cases, and
// derives the (a₁, a₂, a₃) interval constants used by Theorem 6 and
// Corollary 10.
package bias

import (
	"fmt"
	"math"

	"bitspread/internal/dist"
	"bitspread/internal/poly"
	"bitspread/internal/protocol"
)

// Case identifies which branch of the Theorem 12 proof applies to a rule.
type Case int

const (
	// CaseZero means F ≡ 0 (e.g. the Voter): Lemma 11 applies.
	CaseZero Case = iota + 1
	// CaseNegative means F < 0 on the interval adjacent to p = 1
	// (Figure 2): with correct opinion z = 1 the chain is a
	// super-martingale below consensus and crosses slowly.
	CaseNegative
	// CasePositive means F > 0 on that interval (Figure 3): with z = 0 the
	// chain is a sub-martingale above a₁·n and descends slowly.
	CasePositive
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseZero:
		return "F≡0 (Lemma 11)"
	case CaseNegative:
		return "Case 1: F<0 near p=1 (Figure 2)"
	case CasePositive:
		return "Case 2: F>0 near p=1 (Figure 3)"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// rootTol is the absolute accuracy to which roots of F are located.
const rootTol = 1e-12

// Analysis is the complete root-and-sign portrait of a rule's bias
// polynomial. Construct it with For. Fields are read-only.
type Analysis struct {
	rule *protocol.Rule
	f    poly.Poly
	// roots are the distinct roots of F in [0, 1], ascending. For a rule
	// satisfying Proposition 3 they always include 0 and 1.
	roots []float64
	// signs[i] is the sign of F on the open interval (roots[i], roots[i+1]).
	signs []int
}

// For builds the bias polynomial of r and analyses its roots in [0, 1].
func For(r *protocol.Rule) *Analysis {
	f := Polynomial(r)
	a := &Analysis{rule: r, f: f}
	if f.IsZero() {
		return a
	}
	a.roots = f.RootsIn(0, 1, rootTol)
	a.signs = make([]int, 0, len(a.roots)-1)
	for i := 0; i+1 < len(a.roots); i++ {
		mid := (a.roots[i] + a.roots[i+1]) / 2
		v := f.Eval(mid)
		switch {
		case v > 0:
			a.signs = append(a.signs, 1)
		case v < 0:
			a.signs = append(a.signs, -1)
		default:
			a.signs = append(a.signs, 0)
		}
	}
	return a
}

// Polynomial returns F_n for rule r as an explicit polynomial in p.
// Coefficients whose magnitude is pure cancellation noise (relative 1e-12)
// are snapped to zero, so e.g. the Voter yields the genuine zero
// polynomial.
func Polynomial(r *protocol.Rule) poly.Poly {
	ell := r.SampleSize()
	x := poly.New(0, 1)
	oneMinusX := poly.New(1, -1)

	// Precompute powers of x and (1-x).
	xPow := make([]poly.Poly, ell+1)
	omPow := make([]poly.Poly, ell+1)
	xPow[0], omPow[0] = poly.New(1), poly.New(1)
	for i := 1; i <= ell; i++ {
		xPow[i] = xPow[i-1].Mul(x)
		omPow[i] = omPow[i-1].Mul(oneMinusX)
	}

	f := poly.New(0, -1) // the leading -p term
	termScale := 1.0     // largest coefficient magnitude among summed terms
	for k := 0; k <= ell; k++ {
		g1 := r.G(1, k)
		g0 := r.G(0, k)
		//bitlint:floatexact g-table entries are caller-written constants; skipping only bit-exact zeros is conservative
		if g1 == 0 && g0 == 0 {
			continue
		}
		// C(ℓ,k)·x^k·(1-x)^{ℓ-k}·(g1·x + g0·(1-x))
		base := xPow[k].Mul(omPow[ell-k]).Scale(dist.Choose(int64(ell), int64(k)))
		inner := x.Scale(g1).Add(oneMinusX.Scale(g0))
		term := base.Mul(inner)
		termScale = math.Max(termScale, term.MaxAbsCoeff())
		f = f.Add(term)
	}

	// Snap cancellation noise to zero so structural zeros are exact. The
	// threshold is relative to the magnitude of the terms *before*
	// cancellation: a rule like the Voter cancels O(2^ℓ) coefficients down
	// to exactly zero up to float round-off.
	eps := 1e-11 * termScale
	cleaned := make([]float64, 0, f.Degree()+1)
	for i := 0; i <= f.Degree(); i++ {
		c := f[i]
		if math.Abs(c) <= eps {
			c = 0
		}
		cleaned = append(cleaned, c)
	}
	return poly.New(cleaned...)
}

// F returns the bias polynomial (a copy).
func (a *Analysis) F() poly.Poly { return append(poly.Poly(nil), a.f...) }

// Drift returns F(p).
func (a *Analysis) Drift(p float64) float64 { return a.f.Eval(p) }

// IsZero reports whether F ≡ 0 (the Lemma 11 regime).
func (a *Analysis) IsZero() bool { return a.f.IsZero() }

// Roots returns the distinct roots of F in [0, 1], ascending (a copy).
// It is empty when F ≡ 0.
func (a *Analysis) Roots() []float64 { return append([]float64(nil), a.roots...) }

// Signs returns the sign of F strictly between consecutive roots (a copy).
func (a *Analysis) Signs() []int { return append([]int(nil), a.signs...) }

// Classify returns the Theorem 12 proof case for the rule, derived from
// the sign of F on the root interval adjacent to p = 1 (the finite-n
// analogue of the interval (r^{(k₀-1)}, r^{(k₀)}) in the proof).
func (a *Analysis) Classify() Case {
	if a.IsZero() {
		return CaseZero
	}
	// Walk inward from 1: the last interval with a definite sign.
	for i := len(a.signs) - 1; i >= 0; i-- {
		switch a.signs[i] {
		case 1:
			return CasePositive
		case -1:
			return CaseNegative
		}
	}
	// F is non-zero as a polynomial but numerically flat on every interval;
	// treat as the zero regime.
	return CaseZero
}

// IntervalNearOne returns the open root interval of F adjacent to p = 1
// with a definite sign, and that sign. ok is false when F ≡ 0 or no signed
// interval exists.
func (a *Analysis) IntervalNearOne() (lo, hi float64, sign int, ok bool) {
	for i := len(a.signs) - 1; i >= 0; i-- {
		if a.signs[i] != 0 {
			return a.roots[i], a.roots[i+1], a.signs[i], true
		}
	}
	return 0, 0, 0, false
}

// MaxAbsDrift returns max |F(p)| over a uniform grid of samples+1 points
// in [0, 1]. It is a cheap scalar summary of how far a rule sits from the
// Voter-class F ≡ 0 regime — the evolutionary search uses it as a fitness
// pre-filter: a rule with large worst-case drift is provably slow by
// Theorem 12, so simulation can be skipped entirely. samples below 2 is
// treated as 2.
func (a *Analysis) MaxAbsDrift(samples int) float64 {
	if a.IsZero() {
		return 0
	}
	if samples < 2 {
		samples = 2
	}
	maxAbs := 0.0
	for i := 0; i <= samples; i++ {
		v := math.Abs(a.f.Eval(float64(i) / float64(samples)))
		if v > maxAbs {
			maxAbs = v
		}
	}
	return maxAbs
}

// ExpectedNext returns the Proposition 5 drift prediction
// x + n·F(x/n) for population n and count x. The true conditional
// expectation lies within ±1 of this value (Eqs. 5–6).
func (a *Analysis) ExpectedNext(n, x int64) float64 {
	p := float64(x) / float64(n)
	return float64(x) + float64(n)*a.f.Eval(p)
}

// Constants is the (a₁, a₂, a₃) triple feeding Theorem 6 / Corollary 10,
// plus the initial count X₀ and the correct opinion z for which the proof
// predicts slow convergence.
type Constants struct {
	A1, A2, A3 float64
	X0Frac     float64 // X₀ / n
	Z          int     // the adversarial choice of the correct opinion
}

// ProofConstants derives the interval constants used by the two cases of
// Theorem 12 from the analysed root structure. ok is false in the
// CaseZero regime, where Lemma 11 fixes (1/4, 1/2, 3/4) with z = 1 instead
// (returned anyway for convenience).
func (a *Analysis) ProofConstants() (Constants, bool) {
	switch a.Classify() {
	case CaseNegative:
		lo, _, _, _ := a.IntervalNearOne()
		a1 := lo + (1-lo)/4
		a2 := dist.Prop4Y(a1, a.rule.SampleSize())
		a3 := (a2 + 1) / 2
		return Constants{A1: a1, A2: a2, A3: a3, X0Frac: (a2 + a3) / 2, Z: 1}, true
	case CasePositive:
		lo, _, _, _ := a.IntervalNearOne()
		a1 := lo + (1-lo)/4
		a2 := lo + (1-lo)/2
		a3 := lo + 3*(1-lo)/4
		return Constants{A1: a1, A2: a2, A3: a3, X0Frac: (a1 + a2) / 2, Z: 0}, true
	default:
		return Constants{A1: 0.25, A2: 0.5, A3: 0.75, X0Frac: 0.625, Z: 1}, false
	}
}
