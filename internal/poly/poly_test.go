package poly

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func polyAlmostEqual(p, q Poly, tol float64) bool {
	p, q = p.trim(), q.trim()
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Abs(p[i]-q[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewTrims(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Errorf("degree = %d, want 1", p.Degree())
	}
	if !New().IsZero() || !New(0, 0).IsZero() {
		t.Error("zero polynomial not recognized")
	}
	if New().Degree() != -1 {
		t.Errorf("zero polynomial degree = %d, want -1", New().Degree())
	}
}

func TestEval(t *testing.T) {
	p := New(1, -2, 3) // 1 - 2x + 3x²
	tests := []struct{ x, want float64 }{
		{0, 1}, {1, 2}, {2, 9}, {-1, 6},
	}
	for _, tt := range tests {
		if got := p.Eval(tt.x); got != tt.want {
			t.Errorf("p(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := New().Eval(5); got != 0 {
		t.Errorf("zero poly eval = %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	p := New(1, 2)  // 1+2x
	q := New(3, -2) // 3-2x
	if got, want := p.Add(q), New(4); !polyAlmostEqual(got, want, 0) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := p.Mul(q), New(3, 4, -4); !polyAlmostEqual(got, want, 0) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	if got := p.Mul(New()); !got.IsZero() {
		t.Errorf("Mul by zero = %v", got)
	}
	if got, want := p.Scale(-3), New(-3, -6); !polyAlmostEqual(got, want, 0) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestDerivative(t *testing.T) {
	p := New(5, 1, 2, 3) // 5 + x + 2x² + 3x³
	want := New(1, 4, 9)
	if got := p.Derivative(); !polyAlmostEqual(got, want, 0) {
		t.Errorf("Derivative = %v, want %v", got, want)
	}
	if !New(7).Derivative().IsZero() {
		t.Error("derivative of constant should be zero")
	}
}

func TestProductRuleQuick(t *testing.T) {
	// Property: (pq)' = p'q + pq'.
	f := func(a, b, c, d, e, g int8) bool {
		p := New(float64(a), float64(b), float64(c))
		q := New(float64(d), float64(e), float64(g))
		lhs := p.Mul(q).Derivative()
		rhs := p.Derivative().Mul(q).Add(p.Mul(q.Derivative()))
		return polyAlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDiv(t *testing.T) {
	// x² - 1 = (x-1)(x+1).
	p := New(-1, 0, 1)
	q := New(-1, 1)
	quot, rem := p.Div(q)
	if !polyAlmostEqual(quot, New(1, 1), 1e-12) {
		t.Errorf("quot = %v, want 1+x", quot)
	}
	if !rem.IsZero() {
		t.Errorf("rem = %v, want 0", rem)
	}
	// 2x+3 divided by x²: quotient 0, remainder 2x+3.
	quot, rem = New(3, 2).Div(New(0, 0, 1))
	if !quot.IsZero() || !polyAlmostEqual(rem, New(3, 2), 0) {
		t.Errorf("low/high division: quot %v rem %v", quot, rem)
	}
}

func TestDivQuickIdentity(t *testing.T) {
	// Property: p = q*quot + rem, deg(rem) < deg(q).
	f := func(a, b, c, d, e int8, q1, q2 int8) bool {
		p := New(float64(a), float64(b), float64(c), float64(d), float64(e))
		q := New(float64(q1), float64(q2), 1) // monic quadratic: well conditioned
		quot, rem := p.Div(q)
		recon := q.Mul(quot).Add(rem)
		return polyAlmostEqual(recon, p, 1e-7) && rem.Degree() < q.Degree()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDivPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("division by zero polynomial did not panic")
		}
	}()
	New(1, 2).Div(New())
}

func TestString(t *testing.T) {
	tests := []struct {
		p    Poly
		want string
	}{
		{New(), "0"},
		{New(1), "1"},
		{New(0, 1), "x"},
		{New(1, -2, 0, 0.5), "1 - 2x + 0.5x^3"},
		{New(-1, 1), "-1 + x"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", []float64(tt.p), got, tt.want)
		}
	}
}

func TestRootsInKnown(t *testing.T) {
	tests := []struct {
		name string
		p    Poly
		a, b float64
		want []float64
	}{
		{"linear", New(-0.5, 1), 0, 1, []float64{0.5}},
		{"endpoints", New(0, -1, 0, 1), -1, 1, []float64{-1, 0, 1}}, // x³-x
		{"double root", New(-0.3, 1).Mul(New(-0.3, 1)), 0, 1, []float64{0.3}},
		{"none", New(2, 0, 1), 0, 1, nil},
		{"quadratic", New(0.02, -0.3, 1), 0, 1, []float64{0.1, 0.2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.p.RootsIn(tt.a, tt.b, 1e-10)
			if len(got) != len(tt.want) {
				t.Fatalf("RootsIn = %v, want %v", got, tt.want)
			}
			for i := range got {
				if math.Abs(got[i]-tt.want[i]) > 1e-8 {
					t.Errorf("root %d = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestRootsInWilkinsonStyle(t *testing.T) {
	// Product of (x - k/10) for k = 1..6: clustered roots stress isolation.
	p := New(1)
	var want []float64
	for k := 1; k <= 6; k++ {
		r := float64(k) / 10
		p = p.Mul(New(-r, 1))
		want = append(want, r)
	}
	got := p.RootsIn(0, 1, 1e-10)
	if len(got) != len(want) {
		t.Fatalf("found %d roots %v, want %d", len(got), got, len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-7 {
			t.Errorf("root %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRootsMatchCountQuick(t *testing.T) {
	// Property: for random cubics with roots drawn in (0,1), RootsIn finds
	// exactly the planted distinct roots.
	f := func(r1, r2, r3 uint8) bool {
		roots := []float64{
			0.05 + 0.9*float64(r1)/255,
			0.05 + 0.9*float64(r2)/255,
			0.05 + 0.9*float64(r3)/255,
		}
		p := New(1)
		for _, r := range roots {
			p = p.Mul(New(-r, 1))
		}
		sort.Float64s(roots)
		distinct := roots[:0:0]
		for _, r := range roots {
			if len(distinct) == 0 || r-distinct[len(distinct)-1] > 1e-6 {
				distinct = append(distinct, r)
			}
		}
		got := p.RootsIn(0, 1, 1e-10)
		if len(got) != len(distinct) {
			return false
		}
		for i := range got {
			if math.Abs(got[i]-distinct[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
