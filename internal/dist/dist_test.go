package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLogChoose(t *testing.T) {
	tests := []struct {
		n, k int64
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{10, 5, math.Log(252)},
		{52, 5, math.Log(2598960)},
	}
	for _, tt := range tests {
		if got := LogChoose(tt.n, tt.k); !almost(got, tt.want, 1e-9) {
			t.Errorf("LogChoose(%d,%d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
	if !math.IsInf(LogChoose(5, 6), -1) || !math.IsInf(LogChoose(5, -1), -1) {
		t.Error("LogChoose outside [0,n] should be -Inf")
	}
}

// LogFactorial is a drop-in for math.Lgamma(float64(k)+1): bit-equal on
// every table entry and on both sides of the table edge.
func TestLogFactorialMatchesLgamma(t *testing.T) {
	check := func(k int64) {
		want, _ := math.Lgamma(float64(k) + 1)
		if got := LogFactorial(k); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("LogFactorial(%d) = %v, want %v bit for bit", k, got, want)
		}
	}
	for k := int64(0); k <= logFactTableMax; k++ {
		check(k)
	}
	for _, k := range []int64{-1, -2, logFactTableMax + 1, logFactTableMax + 2, 100003, 1 << 20, 1<<40 + 1, 1<<53 - 1, math.MaxInt64} {
		check(k)
	}
	if len(logFactTable) != 1<<14+1 {
		t.Errorf("table has %d entries, want 2¹⁴+1", len(logFactTable))
	}
}

// LogChoose must stay bit-equal to the three-Lgamma formula it has always
// computed: the markov builders, AdoptProb and the χ² oracles depend on its
// exact values, not only on its accuracy.
func TestLogChooseBitIdentical(t *testing.T) {
	lgamma := func(x float64) float64 { v, _ := math.Lgamma(x); return v }
	ns := []int64{1, 2, 3, 17, 255, 1000, 1<<14 - 1, 1 << 14, 1<<14 + 1, 1<<14 + 77, 100003, 1 << 20, 1 << 40}
	for _, n := range ns {
		ks := []int64{1, 2, n / 3, n / 2, n - 1, n - 2, n - 1<<14, 1 << 14, 1<<14 + 1, n - 1<<14 - 1}
		for _, k := range ks {
			if k <= 0 || k >= n {
				continue
			}
			want := lgamma(float64(n)+1) - lgamma(float64(k)+1) - lgamma(float64(n-k)+1)
			if got := LogChoose(n, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("LogChoose(%d, %d) = %v, want %v bit for bit", n, k, got, want)
			}
		}
	}
}

func TestChoosePascal(t *testing.T) {
	// Property: C(n,k) = C(n-1,k-1) + C(n-1,k) for moderate n.
	for n := int64(2); n <= 30; n++ {
		for k := int64(1); k < n; k++ {
			got := Choose(n, k)
			want := Choose(n-1, k-1) + Choose(n-1, k)
			if !almost(got, want, 1e-6*want) {
				t.Fatalf("Pascal identity fails at C(%d,%d): %v vs %v", n, k, got, want)
			}
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		n int64
		p float64
	}{{10, 0.5}, {50, 0.1}, {100, 0.99}, {1000, 0.3}} {
		sum := 0.0
		for k := int64(0); k <= c.n; k++ {
			sum += BinomialPMF(c.n, k, c.p)
		}
		if !almost(sum, 1, 1e-9) {
			t.Errorf("pmf(n=%d,p=%v) sums to %v", c.n, c.p, sum)
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if got := BinomialPMF(10, 0, 0); got != 1 {
		t.Errorf("PMF(10,0,p=0) = %v, want 1", got)
	}
	if got := BinomialPMF(10, 10, 1); got != 1 {
		t.Errorf("PMF(10,10,p=1) = %v, want 1", got)
	}
	if got := BinomialPMF(10, 3, 0); got != 0 {
		t.Errorf("PMF(10,3,p=0) = %v, want 0", got)
	}
	if got := BinomialPMF(10, -1, 0.5); got != 0 {
		t.Errorf("PMF out of range = %v, want 0", got)
	}
}

func TestBinomialPMFKnownValues(t *testing.T) {
	// P(X=2) for Binomial(4, 0.5) = 6/16.
	if got := BinomialPMF(4, 2, 0.5); !almost(got, 0.375, 1e-12) {
		t.Errorf("PMF(4,2,0.5) = %v, want 0.375", got)
	}
	// Deep tail: P(X=0) for Binomial(1000, 0.5) = 2^-1000.
	got := BinomialPMF(1000, 0, 0.5)
	want := math.Exp(-1000 * math.Ln2)
	if got == 0 || math.Abs(math.Log(got)-math.Log(want)) > 1e-9 {
		t.Errorf("deep tail PMF = %v, want %v", got, want)
	}
}

func TestBinomialCDF(t *testing.T) {
	tests := []struct {
		n, k int64
		p    float64
		want float64
	}{
		{10, -1, 0.5, 0},
		{10, 10, 0.5, 1},
		{4, 2, 0.5, (1 + 4 + 6) / 16.0},
		{10, 5, 0, 1},
		{10, 5, 1, 0},
	}
	for _, tt := range tests {
		if got := BinomialCDF(tt.n, tt.k, tt.p); !almost(got, tt.want, 1e-12) {
			t.Errorf("CDF(%d,%d,%v) = %v, want %v", tt.n, tt.k, tt.p, got, tt.want)
		}
	}
}

func TestBinomialCDFMonotone(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := float64(pRaw) / 256
		prev := -1.0
		for k := int64(0); k <= 30; k++ {
			c := BinomialCDF(30, k, p)
			if c < prev-1e-12 {
				return false
			}
			prev = c
		}
		return almost(prev, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalCDFValues(t *testing.T) {
	tests := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, tt := range tests {
		if got := NormalCDF(tt.x); !almost(got, tt.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x); !almost(got, p, 1e-8) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestHoeffdingTail(t *testing.T) {
	// delta = sqrt(n) gives exp(-2).
	if got := HoeffdingTail(100, 10); !almost(got, math.Exp(-2), 1e-12) {
		t.Errorf("HoeffdingTail(100,10) = %v", got)
	}
	if got := HoeffdingTail(0, 5); got != 1 {
		t.Errorf("HoeffdingTail with n=0 = %v, want 1", got)
	}
	// The bound is a valid probability bound: verify it dominates the exact
	// binomial tail on a grid.
	const n = 200
	for _, delta := range []float64{5, 10, 20, 40} {
		exact := 1 - BinomialCDF(n, int64(n/2+delta)-1, 0.5) // P(X >= n/2 + delta)
		bound := HoeffdingTail(n, delta)
		if exact > bound+1e-12 {
			t.Errorf("Hoeffding bound violated at delta=%v: exact %v > bound %v", delta, exact, bound)
		}
	}
}

func TestAzumaTail(t *testing.T) {
	got := AzumaTail(100, 1, 20, 0.01)
	want := 2*math.Exp(-400.0/200.0) + 0.01
	if !almost(got, want, 1e-12) {
		t.Errorf("AzumaTail = %v, want %v", got, want)
	}
	if got := AzumaTail(0, 1, 5, 0.25); got != 0.25 {
		t.Errorf("AzumaTail with 0 steps = %v, want p", got)
	}
}

func TestProp4Y(t *testing.T) {
	// y(c,ℓ) = 1 - (1-c)^{ℓ+1}/2 must lie in (c, 1) for c in (0,1).
	for _, c := range []float64{0.1, 0.3, 0.5, 0.9} {
		for _, l := range []int{1, 2, 3, 5, 10} {
			y := Prop4Y(c, l)
			if y <= c || y >= 1 {
				t.Errorf("Prop4Y(%v,%d) = %v not in (c,1)", c, l, y)
			}
		}
	}
	if got, want := Prop4Y(0.5, 1), 1-0.25/2; !almost(got, want, 1e-12) {
		t.Errorf("Prop4Y(0.5,1) = %v, want %v", got, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Prop4Y(-1, 2) did not panic")
			}
		}()
		Prop4Y(-1, 2)
	}()
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 0.05)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("Wilson(50/100) = [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("Wilson(50/100) width %v too wide", hi-lo)
	}
	lo, hi = WilsonInterval(0, 100, 0.05)
	if lo != 0 {
		t.Errorf("Wilson(0/100) lo = %v, want 0", lo)
	}
	if hi <= 0 || hi > 0.1 {
		t.Errorf("Wilson(0/100) hi = %v", hi)
	}
	lo, hi = WilsonInterval(0, 0, 0.05)
	if lo != 0 || hi != 1 {
		t.Errorf("Wilson with no trials = [%v,%v], want [0,1]", lo, hi)
	}
}

func TestWilsonIntervalQuick(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int64(n%1000) + 1
		successes := int64(s) % (trials + 1)
		lo, hi := WilsonInterval(successes, trials, 0.05)
		phat := float64(successes) / float64(trials)
		return lo >= 0 && hi <= 1 && lo <= phat+1e-12 && hi >= phat-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
