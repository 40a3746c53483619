package poly

import (
	"math"
	"testing"
)

// FuzzDivIdentity fuzzes the division identity p = q·quot + rem with a
// monic divisor (well-conditioned), plus the degree contract.
func FuzzDivIdentity(f *testing.F) {
	f.Add(1.0, -2.0, 3.0, 0.5, -1.0, 2.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, a, b, c, d, q0, q1 float64) {
		for _, v := range []float64{a, b, c, d, q0, q1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		p := New(a, b, c, d)
		q := New(q0, q1, 1) // monic quadratic
		quot, rem := p.Div(q)
		recon := q.Mul(quot).Add(rem)
		scale := math.Max(1, p.MaxAbsCoeff())
		diff := recon.Add(p.Scale(-1))
		if diff.MaxAbsCoeff() > 1e-6*scale {
			t.Fatalf("p=%v q=%v: reconstruction off by %v", p, q, diff.MaxAbsCoeff())
		}
		if rem.Degree() >= q.Degree() {
			t.Fatalf("rem degree %d >= divisor degree %d", rem.Degree(), q.Degree())
		}
	})
}

// FuzzRootsInBounds fuzzes root isolation on random cubics: every
// reported root must lie in the query interval and nearly vanish.
func FuzzRootsInBounds(f *testing.F) {
	f.Add(-0.5, 1.0, 0.25, -2.0)
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3 float64) {
		for _, v := range []float64{c0, c1, c2, c3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				t.Skip()
			}
		}
		p := New(c0, c1, c2, c3)
		if p.Degree() < 1 {
			t.Skip()
		}
		roots := p.RootsIn(0, 1, 1e-10)
		valEps := 1e-6 * math.Max(1, p.MaxAbsCoeff())
		for _, r := range roots {
			if r < -1e-9 || r > 1+1e-9 {
				t.Fatalf("root %v outside [0,1]", r)
			}
			if v := math.Abs(p.Eval(r)); v > valEps {
				t.Fatalf("p(%v) = %v, not a root of %v", r, v, p)
			}
		}
	})
}
