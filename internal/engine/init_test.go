package engine

import (
	"testing"

	"bitspread/internal/dist"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// The initial layout must be an exact uniform (X0−z)-subset of slots
// 1..n−1 in every regime of initialBits: the word-parallel Bernoulli fill
// with its count fix-up (dense), Floyd over zeros (sparse) and Floyd over
// ones (co-sparse). Over R layouts each
// slot's occupancy is Binomial(R, k/m), and one layout's indicators have
// covariance −p(1−p)/(m−1), so the scaled statistic
// Σ (Oᵢ − Rp)² / (Rp(1−p)) · (m−1)/m is χ²(m−1) under uniformity.
func TestInitialBitsUniform(t *testing.T) {
	const n, reps = 256, 4000
	const m = n - 1
	for i, tc := range []struct {
		name string
		x0   int64
	}{
		{"dense", n / 2},
		{"dense-unbalanced", 100},
		{"sparse", 4},        // k = 3 ≤ m/64
		{"co-sparse", n - 2}, // m−k = 2 ≤ m/64
	} {
		cfg := Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: tc.x0}
		g := rng.New(uint64(31 + i))
		occ := make([]int64, n)
		for r := 0; r < reps; r++ {
			b := initialBits(cfg, newWordStream(g))
			if b.get(0) != 1 || b.count() != tc.x0 {
				t.Fatalf("%s: layout holds source %d and %d ones, want 1 and %d", tc.name, b.get(0), b.count(), tc.x0)
			}
			for j := int64(1); j < n; j++ {
				occ[j] += int64(b.get(j))
			}
		}
		p := float64(tc.x0-1) / m
		want := reps * p
		stat := 0.0
		for j := 1; j < n; j++ {
			d := float64(occ[j]) - want
			stat += d * d / (want * (1 - p))
		}
		stat *= float64(m-1) / m
		if pv := dist.ChiSquareTail(stat, m-1); pv < 0.001 {
			t.Errorf("%s: slot occupancy χ² = %.1f on %d dof, p = %.5f — layout is not a uniform subset", tc.name, stat, m-1, pv)
		}
	}
}
