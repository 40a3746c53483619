package markov

import (
	"errors"
	"math"
	"testing"
)

func simpleWalk(n int) *Chain {
	// Symmetric ±1 random walk on 0..n with absorbing endpoints.
	c, err := New(n+1, func(i int) []float64 {
		row := make([]float64, n+1)
		if i == 0 || i == n {
			row[i] = 1
			return row
		}
		row[i-1], row[i+1] = 0.5, 0.5
		return row
	})
	if err != nil {
		panic(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	t.Run("bad size", func(t *testing.T) {
		if _, err := New(0, nil); err == nil {
			t.Error("size 0 accepted")
		}
	})
	t.Run("bad row length", func(t *testing.T) {
		_, err := New(2, func(int) []float64 { return []float64{1} })
		if err == nil {
			t.Error("short row accepted")
		}
	})
	t.Run("not stochastic", func(t *testing.T) {
		_, err := New(2, func(int) []float64 { return []float64{0.5, 0.4} })
		if !errors.Is(err, ErrNotStochastic) {
			t.Errorf("error = %v, want ErrNotStochastic", err)
		}
	})
	t.Run("negative entry", func(t *testing.T) {
		_, err := New(2, func(int) []float64 { return []float64{1.5, -0.5} })
		if err == nil {
			t.Error("negative entry accepted")
		}
	})
}

func TestStepEvolveTwoState(t *testing.T) {
	// p(0->1) = 0.3, p(1->0) = 0.2: stationary distribution (0.4, 0.6).
	c, err := New(2, func(i int) []float64 {
		if i == 0 {
			return []float64{0.7, 0.3}
		}
		return []float64{0.2, 0.8}
	})
	if err != nil {
		t.Fatal(err)
	}
	d := c.Evolve(0, 200)
	if math.Abs(d[0]-0.4) > 1e-9 || math.Abs(d[1]-0.6) > 1e-9 {
		t.Errorf("long-run distribution = %v, want [0.4 0.6]", d)
	}
	one := c.Step([]float64{1, 0})
	if math.Abs(one[1]-0.3) > 1e-12 {
		t.Errorf("one step = %v", one)
	}
}

func TestExpectedHittingTimesGamblersRuin(t *testing.T) {
	// For the symmetric walk absorbed at {0, n}: E_x[T] = x(n-x).
	const n = 20
	c := simpleWalk(n)
	h, err := c.ExpectedHittingTimes(map[int]bool{0: true, n: true})
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x <= n; x++ {
		want := float64(x * (n - x))
		if math.Abs(h[x]-want) > 1e-6 {
			t.Errorf("h[%d] = %v, want %v", x, h[x], want)
		}
	}
}

func TestExpectedHittingTimesUnreachable(t *testing.T) {
	// Two disconnected absorbing states: from state 0 the target {2} is
	// unreachable.
	c, err := New(3, func(i int) []float64 {
		row := make([]float64, 3)
		row[i] = 1
		return row
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.ExpectedHittingTimes(map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(h[0], 1) || !math.IsInf(h[1], 1) {
		t.Errorf("unreachable states should be +Inf: %v", h)
	}
	if h[2] != 0 {
		t.Errorf("target state h = %v", h[2])
	}
}

func TestBirthDeathValidation(t *testing.T) {
	tests := []struct {
		name     string
		up, down []float64
	}{
		{"length mismatch", []float64{0.5, 0}, []float64{0, 0.5, 0}},
		{"empty", nil, nil},
		{"top can move up", []float64{0.5, 0.5}, []float64{0, 0.5}},
		{"bottom can move down", []float64{0.5, 0}, []float64{0.5, 0.5}},
		{"rates exceed 1", []float64{0.6, 0.6, 0}, []float64{0, 0.5, 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewBirthDeath(tt.up, tt.down); err == nil {
				t.Error("invalid chain accepted")
			}
		})
	}
}

func TestBirthDeathPureBirth(t *testing.T) {
	// up = 0.25 everywhere, no deaths: E[a→b] = 4(b-a).
	n := 10
	up := make([]float64, n+1)
	down := make([]float64, n+1)
	for i := 0; i < n; i++ {
		up[i] = 0.25
	}
	bd, err := NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.ExpectedTimeUp(2, 7); math.Abs(got-20) > 1e-12 {
		t.Errorf("ExpectedTimeUp(2,7) = %v, want 20", got)
	}
	if got := bd.ExpectedTimeUp(3, 3); got != 0 {
		t.Errorf("ExpectedTimeUp(3,3) = %v, want 0", got)
	}
}

func TestBirthDeathBlockedIsInf(t *testing.T) {
	// up[2] = 0 blocks upward passage through level 2.
	up := []float64{0.5, 0.5, 0, 0.5, 0}
	down := []float64{0, 0.25, 0.25, 0.25, 0.25}
	bd, err := NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	if got := bd.ExpectedTimeUp(0, 4); !math.IsInf(got, 1) {
		t.Errorf("blocked passage = %v, want +Inf", got)
	}
	// From 3, the chain may fall to 2 and never climb back: reaching 4 is
	// not almost-sure, so the expected hitting time is +Inf as well.
	if got := bd.ExpectedTimeUp(3, 4); !math.IsInf(got, 1) {
		t.Errorf("ExpectedTimeUp(3,4) = %v, want +Inf (escape below the block)", got)
	}
}

func TestBirthDeathBlockedBelowButUnreachable(t *testing.T) {
	// up[0] = 0, but down[1] = 0 too: from state 1 the block below is
	// unreachable, so times are finite (this exercises the 0·Inf guard).
	up := []float64{0, 0.5, 0.5, 0}
	down := []float64{0, 0, 0.25, 0.25}
	bd, err := NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	// e[1] = 1/0.5 = 2; e[2] = (1 + 0.25·2)/0.5 = 3; total 5.
	if got := bd.ExpectedTimeUp(1, 3); math.Abs(got-5) > 1e-12 {
		t.Errorf("ExpectedTimeUp(1,3) = %v, want 5", got)
	}
}

func TestBirthDeathMatchesDense(t *testing.T) {
	// Random-ish asymmetric chain: closed forms vs dense linear solve.
	n := 12
	up := make([]float64, n+1)
	down := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		if i < n {
			up[i] = 0.1 + 0.4*float64(i%3)/2
		}
		if i > 0 {
			down[i] = 0.05 + 0.3*float64((i+1)%4)/3
		}
	}
	bd, err := NewBirthDeath(up, down)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := bd.Dense()
	if err != nil {
		t.Fatal(err)
	}

	hUp, err := dense.ExpectedHittingTimes(map[int]bool{n: true})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a++ {
		want := hUp[a]
		if got := bd.ExpectedTimeUp(a, n); math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("ExpectedTimeUp(%d,%d) = %v, dense says %v", a, n, got, want)
		}
	}

	hDown, err := dense.ExpectedHittingTimes(map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a <= n; a++ {
		want := hDown[a]
		if got := bd.ExpectedTimeDown(a, 0); math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("ExpectedTimeDown(%d,0) = %v, dense says %v", a, want, got)
		}
	}
}

func TestBirthDeathPanicsOnBadRange(t *testing.T) {
	bd, err := NewBirthDeath([]float64{0.5, 0}, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range query did not panic")
		}
	}()
	bd.ExpectedTimeUp(0, 5)
}

func TestDoobIdentity(t *testing.T) {
	// For a martingale oracle (expNext(x) = x) with shift 1: A_t = -t and
	// M_t = X_t.
	xs := []int64{10, 12, 9, 9, 15}
	d := Decompose(xs, 1, func(x int64) float64 { return float64(x) })
	for k := range xs {
		if want := float64(xs[k]) - float64(k); math.Abs(d.Y[k]-want) > 1e-12 {
			t.Errorf("Y[%d] = %v, want %v", k, d.Y[k], want)
		}
		if math.Abs(d.A[k]-(-float64(k))) > 1e-12 {
			t.Errorf("A[%d] = %v, want %v", k, d.A[k], -float64(k))
		}
		if math.Abs(d.M[k]-float64(xs[k])) > 1e-12 {
			t.Errorf("M[%d] = %v, want %v", k, d.M[k], float64(xs[k]))
		}
		if math.Abs(d.Y[k]-(d.M[k]+d.A[k])) > 1e-12 {
			t.Errorf("Y != M + A at %d", k)
		}
	}
}

func TestDoobDiagnostics(t *testing.T) {
	xs := []int64{0, 5, 3, 8}
	d := Decompose(xs, 0, func(x int64) float64 { return float64(x) })
	// Martingale part equals X itself: steps 5, -2, 5 → max 5.
	if got := d.MaxMartingaleStep(); got != 5 {
		t.Errorf("MaxMartingaleStep = %v, want 5", got)
	}
	if !d.DominanceHolds(1e-9) {
		t.Error("M = Y must dominate itself")
	}
	// Negative-drift oracle inflates A downward, so M > Y strictly after 0.
	d2 := Decompose(xs, 0, func(x int64) float64 { return float64(x) - 1 })
	if !d2.DominanceHolds(1e-9) {
		t.Error("supermartingale dominance violated")
	}
	empty := Decompose(nil, 1, nil)
	if len(empty.Y) != 0 || empty.MaxMartingaleStep() != 0 {
		t.Error("empty trajectory mishandled")
	}
}
