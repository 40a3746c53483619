package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialEdgeCases(t *testing.T) {
	r := New(1)
	tests := []struct {
		name string
		n    int64
		p    float64
		want int64
	}{
		{"n=0", 0, 0.5, 0},
		{"p=0", 100, 0, 0},
		{"p=1", 100, 1, 100},
		{"p<0 clamps", 100, -0.3, 0},
		{"p>1 clamps", 100, 1.3, 100},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				if got := r.Binomial(tt.n, tt.p); got != tt.want {
					t.Fatalf("Binomial(%d, %v) = %d, want %d", tt.n, tt.p, got, tt.want)
				}
			}
		})
	}
}

func TestBinomialPanics(t *testing.T) {
	t.Run("negative n", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(-1, 0.5) did not panic")
			}
		}()
		New(1).Binomial(-1, 0.5)
	})
	t.Run("NaN p", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("Binomial(1, NaN) did not panic")
			}
		}()
		New(1).Binomial(1, math.NaN())
	})
}

func TestBinomialRange(t *testing.T) {
	r := New(2)
	cases := []struct {
		n int64
		p float64
	}{
		{1, 0.5}, {10, 0.1}, {10, 0.9}, {1000, 0.5}, {1000, 0.001},
		{1 << 20, 0.3}, {1 << 30, 0.7},
	}
	for _, c := range cases {
		for i := 0; i < 200; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, v)
			}
		}
	}
}

// TestBinomialMoments checks the first two moments over a grid spanning both
// the inversion and the BTRS branch, and both sides of the p=0.5 reflection.
func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		name  string
		n     int64
		p     float64
		draws int
	}{
		{"inversion small", 20, 0.1, 200000},
		{"inversion tiny p large n", 100000, 0.00005, 200000},
		{"btrs moderate", 100, 0.4, 200000},
		{"btrs large", 100000, 0.5, 50000},
		{"btrs reflected", 100, 0.8, 200000},
		{"btrs huge n", 10000000, 0.25, 20000},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := New(uint64(len(c.name)) * 7919)
			mean := float64(c.n) * c.p
			variance := float64(c.n) * c.p * (1 - c.p)
			sum, sumSq := 0.0, 0.0
			for i := 0; i < c.draws; i++ {
				v := float64(r.Binomial(c.n, c.p))
				sum += v
				sumSq += v * v
			}
			m := sum / float64(c.draws)
			se := math.Sqrt(variance / float64(c.draws))
			if math.Abs(m-mean) > 5*se {
				t.Errorf("mean = %v, want %v ± %v", m, mean, 5*se)
			}
			v := sumSq/float64(c.draws) - m*m
			// Sample variance concentrates with relative error ~sqrt(2/draws)
			// for near-normal summands; allow a generous 10%.
			if variance > 0 && math.Abs(v-variance)/variance > 0.1 {
				t.Errorf("variance = %v, want %v (±10%%)", v, variance)
			}
		})
	}
}

// TestBinomialChiSquare compares the sampler against the exact pmf for a
// small case where every outcome is enumerable, covering the BTRS branch
// (n·p = 12.5 ≥ 10).
func TestBinomialChiSquare(t *testing.T) {
	const n, p, draws = 25, 0.5, 200000
	r := New(99)
	counts := make([]int, n+1)
	for i := 0; i < draws; i++ {
		counts[r.Binomial(n, p)]++
	}
	// Exact pmf via multiplicative recurrence.
	pmf := make([]float64, n+1)
	pmf[0] = math.Pow(1-p, n)
	for k := 1; k <= n; k++ {
		pmf[k] = pmf[k-1] * float64(n-k+1) / float64(k) * p / (1 - p)
	}
	// Pool the extreme tails so every cell has expected count >= 5.
	chi2 := 0.0
	cells := 0
	tailObs, tailExp := 0.0, 0.0
	for k := 0; k <= n; k++ {
		exp := pmf[k] * draws
		if exp < 5 {
			tailObs += float64(counts[k])
			tailExp += exp
			continue
		}
		d := float64(counts[k]) - exp
		chi2 += d * d / exp
		cells++
	}
	if tailExp > 0 {
		d := tailObs - tailExp
		chi2 += d * d / tailExp
		cells++
	}
	// Critical value for cells-1 dof at p=0.001 is below 2*(cells-1)+20
	// for the cell counts arising here; use the exact value for 20 dof.
	if cells > 22 {
		t.Fatalf("unexpected cell count %d", cells)
	}
	if chi2 > 48.27 { // chi2_{0.999, 21}
		t.Errorf("chi-square = %.2f over %d cells, distribution mismatch", chi2, cells)
	}
}

func TestBinomialQuickRange(t *testing.T) {
	r := New(123)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int64(nRaw)
		p := float64(pRaw) / math.MaxUint16
		v := r.Binomial(n, p)
		return v >= 0 && v <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHypergeometricEdges(t *testing.T) {
	r := New(4)
	if got := r.Hypergeometric(10, 0, 5); got != 0 {
		t.Errorf("no marked items: got %d", got)
	}
	if got := r.Hypergeometric(10, 10, 5); got != 5 {
		t.Errorf("all marked: got %d, want 5", got)
	}
	if got := r.Hypergeometric(10, 4, 0); got != 0 {
		t.Errorf("empty draw: got %d", got)
	}
}

func TestHypergeometricMean(t *testing.T) {
	r := New(5)
	const n, marked, k, draws = 50, 20, 10, 100000
	want := float64(k) * float64(marked) / float64(n) // = 4
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Hypergeometric(n, marked, k))
	}
	mean := sum / draws
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("hypergeometric mean = %v, want %v", mean, want)
	}
}

// TestBinomialStreamGolden freezes the sampler's realization: a fixed seed
// drawn across a grid that covers inversion, BTRS, the p > ½ flip, the
// log-factorial table edge (n = 2¹⁴ ± 1, and n − k straddling 2¹⁴) and
// large n (2²⁰, 2⁴⁰). The digest covers every draw and the generator's
// final state, so a change to any value or to stream consumption fails
// here. Re-pin only for a deliberate change of realization.
func TestBinomialStreamGolden(t *testing.T) {
	const want = "66a7ef5d37872e1bb85191ffebaca3cc898e98d3d1ddf1232583ba26cda69d85"
	const edge = 1 << 14
	grid := []struct {
		n int64
		p float64
	}{
		{20, 0.1}, {50, 0.95}, {1000, 0.3}, {1000, 0.8}, {1000, 0.5},
		{edge - 1, 0.5}, {edge, 0.5}, {edge + 1, 0.5},
		{edge - 1, 0.001}, {edge, 0.001}, {edge + 1, 0.001}, {edge + 16, 0.001},
		{edge + 1, 0.999}, {edge + 1, 0.37},
		{1 << 20, 0.5}, {1 << 20, 0.001}, {1 << 20, 0.2}, {1 << 20, 1e-6},
		{1 << 40, 0.5}, {1 << 40, 1e-9}, {1 << 40, 0.3}, {1 << 40, 1e-12},
	}
	r := New(20240217)
	h := sha256.New()
	var buf [8]byte
	for _, c := range grid {
		for i := 0; i < 256; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(r.Binomial(c.n, c.p)))
			h.Write(buf[:])
		}
	}
	for _, s := range []uint64{r.s0, r.s1, r.s2, r.s3} {
		binary.LittleEndian.PutUint64(buf[:], s)
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("binomial stream digest = %s, want %s (the sampler's realization changed)", got, want)
	}
}

func TestHypergeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Hypergeometric with marked > n did not panic")
		}
	}()
	New(1).Hypergeometric(5, 6, 2)
}

func BenchmarkBinomialInversion(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Binomial(100, 0.01)
	}
}

func BenchmarkBinomialBTRS(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Binomial(1000000, 0.3)
	}
}
