package poly

import "math"

// sturmEps is the relative tolerance below which remainder coefficients are
// treated as zero when building Sturm chains. The polynomials arising from
// Eq. 3 have degree at most ℓ+1 with coefficients of magnitude O(2^ℓ), so
// a relative 1e-11 leaves ample headroom over float64 round-off.
const sturmEps = 1e-11

// SturmChain returns the canonical Sturm sequence of p:
// p₀ = p, p₁ = p′, p_{i+1} = −rem(p_{i−1}, p_i), stopping at a (numerically)
// zero remainder. Each term is normalized to unit max coefficient, which
// preserves signs and keeps the chain well conditioned.
func (p Poly) SturmChain() []Poly {
	p = p.trim()
	if len(p) == 0 {
		return nil
	}
	scale := p.MaxAbsCoeff()
	chain := []Poly{p.Scale(1 / scale)}
	d := p.Derivative()
	if d.IsZero() {
		return chain
	}
	chain = append(chain, d.Scale(1/d.MaxAbsCoeff()))
	for {
		prev, cur := chain[len(chain)-2], chain[len(chain)-1]
		_, rem := prev.Div(cur)
		rem = rem.trimEps(sturmEps * math.Max(1, rem.MaxAbsCoeff()))
		if rem.IsZero() {
			return chain
		}
		next := rem.Scale(-1 / rem.MaxAbsCoeff())
		chain = append(chain, next)
	}
}

// signVariations counts the sign changes in the chain evaluated at x,
// skipping zeros, per Sturm's theorem.
func signVariations(chain []Poly, x float64) int {
	variations := 0
	prev := 0 // sign of the last nonzero value seen
	for _, q := range chain {
		v := q.Eval(x)
		s := 0
		switch {
		case v > 0:
			s = 1
		case v < 0:
			s = -1
		}
		if s != 0 {
			if prev != 0 && s != prev {
				variations++
			}
			prev = s
		}
	}
	return variations
}

// RootsIn returns the distinct real roots of p in the closed interval
// [a, b], each located to within tol, in increasing order. Roots are
// isolated by recursive Sturm bisection, so even-multiplicity roots (where
// p touches zero without a sign change) are found. Endpoints that are
// roots are detected by direct evaluation against a tolerance scaled to
// the coefficient magnitude.
func (p Poly) RootsIn(a, b, tol float64) []float64 {
	p = p.trim()
	if len(p) <= 1 || a > b {
		return nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	valEps := sturmEps * math.Max(1, p.MaxAbsCoeff()) * float64(len(p))

	var roots []float64
	if math.Abs(p.Eval(a)) <= valEps {
		roots = append(roots, a)
	}
	if b > a && math.Abs(p.Eval(b)) <= valEps {
		roots = append(roots, b)
	}

	// Shrink to an open interval clear of endpoint roots before counting.
	lo, hi := a, b
	nudge := math.Max(tol, 1e-9*(b-a+1))
	for math.Abs(p.Eval(lo)) <= valEps && lo < b {
		lo += nudge
	}
	for math.Abs(p.Eval(hi)) <= valEps && hi > lo {
		hi -= nudge
	}
	if hi-lo > tol {
		chain := p.SturmChain()
		interior := isolate(chain, lo, hi, tol)
		roots = append(roots, interior...)
	}

	return dedupSorted(roots, 2*tol)
}

// isolate recursively bisects (lo, hi] until each piece holds at most one
// distinct root, then refines that piece to width tol, returning midpoints.
func isolate(chain []Poly, lo, hi, tol float64) []float64 {
	count := signVariations(chain, lo) - signVariations(chain, hi)
	switch {
	case count <= 0:
		return nil
	case count == 1 || hi-lo <= tol:
		return []float64{refine(chain, lo, hi, tol)}
	}
	mid := (lo + hi) / 2
	left := isolate(chain, lo, mid, tol)
	right := isolate(chain, mid, hi, tol)
	return append(left, right...)
}

// refine narrows an interval known to contain exactly one distinct root,
// using Sturm counts (robust to even multiplicity), and returns its
// midpoint.
func refine(chain []Poly, lo, hi, tol float64) float64 {
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if signVariations(chain, lo)-signVariations(chain, mid) >= 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// dedupSorted sorts values (insertion sort: the slices here are tiny) and
// merges entries closer than sep.
func dedupSorted(xs []float64, sep float64) []float64 {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x-out[len(out)-1] > sep {
			out = append(out, x)
		}
	}
	return out
}
