// Package poly implements dense univariate real polynomials with the root
// machinery the paper's Section 4 analysis relies on: the bias function
// F_n(p) of Eq. 3 is a polynomial of degree at most ℓ+1, and the lower-bound
// proof inspects the number, location and sign pattern of its roots in
// [0, 1]. This package provides arithmetic, Sturm sequences, and certified
// root isolation by Sturm bisection (which, unlike sign-change scanning,
// also finds even-multiplicity roots).
package poly

import (
	"fmt"
	"math"
	"strings"
)

// Poly is a polynomial in one variable; Poly[i] is the coefficient of x^i.
// The zero polynomial is represented by an empty or all-zero slice. Values
// are treated as immutable: operations return fresh slices.
type Poly []float64

// New returns a polynomial with the given coefficients, constant term
// first. Trailing zero coefficients are trimmed.
func New(coeffs ...float64) Poly {
	p := make(Poly, len(coeffs))
	copy(p, coeffs)
	return p.trim()
}

// trim removes trailing coefficients that are exactly zero.
func (p Poly) trim() Poly {
	n := len(p)
	//bitlint:floatexact trim drops only bit-exact zero coefficients; near-zeros are trimEps's job
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// trimEps removes trailing coefficients whose magnitude is below eps.
func (p Poly) trimEps(eps float64) Poly {
	n := len(p)
	for n > 0 && math.Abs(p[n-1]) <= eps {
		n--
	}
	return p[:n]
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.trim()) == 0 }

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int { return len(p.trim()) - 1 }

// MaxAbsCoeff returns the largest coefficient magnitude (0 for the zero
// polynomial). It calibrates the tolerances used by the root machinery.
func (p Poly) MaxAbsCoeff() float64 {
	m := 0.0
	for _, c := range p {
		if a := math.Abs(c); a > m {
			m = a
		}
	}
	return m
}

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(x float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	copy(out, p)
	for i, c := range q {
		out[i] += c
	}
	return out.trim()
}

// Mul returns the product p·q by direct convolution.
func (p Poly) Mul(q Poly) Poly {
	p, q = p.trim(), q.trim()
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		//bitlint:floatexact sparse skip; a bit-exact zero coefficient contributes nothing to the convolution
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] += a * b
		}
	}
	return out.trim()
}

// Scale returns k·p.
func (p Poly) Scale(k float64) Poly {
	//bitlint:floatexact scaling by bit-exact zero is the zero polynomial; near-zero scales stay representable
	if k == 0 {
		return nil
	}
	out := make(Poly, len(p))
	for i, c := range p {
		out[i] = k * c
	}
	return out.trim()
}

// Derivative returns p'.
func (p Poly) Derivative() Poly {
	p = p.trim()
	if len(p) <= 1 {
		return nil
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i++ {
		out[i-1] = float64(i) * p[i]
	}
	return out.trim()
}

// Div returns the quotient and remainder of p / q such that
// p = q·quot + rem with deg(rem) < deg(q). It panics if q is zero.
func (p Poly) Div(q Poly) (quot, rem Poly) {
	q = q.trim()
	if len(q) == 0 {
		panic("poly: division by zero polynomial")
	}
	rem = make(Poly, len(p))
	copy(rem, p)
	rem = rem.trim()
	if len(rem) < len(q) {
		return nil, rem
	}
	quot = make(Poly, len(rem)-len(q)+1)
	lead := q[len(q)-1]
	for len(rem) >= len(q) {
		d := len(rem) - len(q)
		c := rem[len(rem)-1] / lead
		quot[d] = c
		for i, b := range q {
			rem[d+i] -= c * b
		}
		// The leading term cancels by construction; drop it explicitly to
		// guarantee progress despite round-off.
		rem = rem[:len(rem)-1].trim()
	}
	return quot.trim(), rem
}

// String renders the polynomial in human-readable form, e.g.
// "1 - 2x + 0.5x^3".
func (p Poly) String() string {
	p = p.trim()
	if len(p) == 0 {
		return "0"
	}
	var b strings.Builder
	first := true
	for i, c := range p {
		//bitlint:floatexact display formatting elides only terms stored as bit-exact zero
		if c == 0 {
			continue
		}
		switch {
		case first:
			first = false
			if c < 0 {
				b.WriteString("-")
			}
		case c < 0:
			b.WriteString(" - ")
		default:
			b.WriteString(" + ")
		}
		a := math.Abs(c)
		switch {
		case i == 0:
			fmt.Fprintf(&b, "%g", a)
		//bitlint:floatexact display formatting; the implicit-1 shorthand applies only to a bit-exact 1
		case a == 1:
			// coefficient 1 is implicit
		default:
			fmt.Fprintf(&b, "%g", a)
		}
		switch {
		case i == 1:
			b.WriteString("x")
		case i > 1:
			fmt.Fprintf(&b, "x^%d", i)
		}
	}
	if first {
		return "0"
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
