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
// ones (co-sparse), serial and sharded. A sharded layout flips each
// shard's words from that shard's own stream: 256 agents are four words
// in one cache line, so 2, 3 and 4 shards split them word by word, while
// 1025 agents are 17 words in three lines, which 3 shards split along
// lines. Over R layouts each slot's occupancy is Binomial(R, k/m), and one
// layout's indicators have covariance −p(1−p)/(m−1), so the scaled
// statistic Σ (Oᵢ − Rp)² / (Rp(1−p)) · (m−1)/m is χ²(m−1) under
// uniformity. Occupancy is blind to how the ones are spread between
// ranges (a fix-up confined to one shard keeps every slot's mean), so the
// test also checks the spread of the ones among slots 1..h, h = ⌊m/2⌋,
// which is Hypergeometric(m, k, h) in a uniform layout: the sum of its R
// squared standard scores is close to χ²(R).
func TestInitialBitsUniform(t *testing.T) {
	for i, tc := range []struct {
		name   string
		n, x0  int64
		shards int
	}{
		{"dense", 256, 128, 1},
		{"dense-unbalanced", 256, 100, 1},
		{"sparse", 256, 4, 1},      // k = 3 ≤ m/64
		{"co-sparse", 256, 254, 1}, // m−k = 2 ≤ m/64
		{"dense/shards=2", 256, 128, 2},
		{"dense/shards=3", 256, 128, 3},
		{"dense/shards=4", 256, 128, 4},
		{"dense-unbalanced/shards=2", 256, 100, 2},
		{"dense-unbalanced/shards=3", 256, 100, 3},
		{"dense-unbalanced/shards=4", 256, 100, 4},
		{"dense/n=1025/shards=3", 1025, 512, 3},
		{"dense-unbalanced/n=1025/shards=3", 1025, 400, 3},
	} {
		cfg := Config{N: tc.n, Rule: protocol.Voter(1), Z: 1, X0: tc.x0}
		b := newBitsetBody(&cfg, AgentOptions{Shards: tc.shards})
		if b.shards != tc.shards {
			t.Fatalf("%s: resolved %d shards, want %d", tc.name, b.shards, tc.shards)
		}
		m := float64(tc.n - 1)
		p := float64(tc.x0-1) / m
		h := int64(m / 2)
		mean := float64(h) * p
		variance := mean * (1 - p) * (m - float64(h)) / (m - 1)
		reps := 4000
		if tc.shards > 1 {
			reps = 500 // each sharded layout refills shards+1 streams of 1024 words
		}
		g := rng.New(uint64(31 + i))
		occ := make([]int64, tc.n)
		spread := 0.0
		for r := 0; r < reps; r++ {
			layout := b.newState(g).cur
			if layout.get(0) != 1 || layout.count() != tc.x0 {
				t.Fatalf("%s: layout holds source %d and %d ones, want 1 and %d", tc.name, layout.get(0), layout.count(), tc.x0)
			}
			var low int64
			for j := int64(1); j < tc.n; j++ {
				occ[j] += int64(layout.get(j))
				if j <= h {
					low += int64(layout.get(j))
				}
			}
			d := float64(low) - mean
			spread += d * d / variance
		}
		if pv := dist.ChiSquareTail(spread, reps); pv < 0.0005 || pv > 0.9995 {
			t.Errorf("%s: ones among slots 1..%d: Σz² = %.0f over %d layouts, p = %.5f — not Hypergeometric, so the layout is not a uniform subset", tc.name, h, spread, reps, pv)
		}
		want := float64(reps) * p
		stat := 0.0
		for j := int64(1); j < tc.n; j++ {
			d := float64(occ[j]) - want
			stat += d * d / (want * (1 - p))
		}
		stat *= (m - 1) / m
		if pv := dist.ChiSquareTail(stat, int(tc.n-2)); pv < 0.001 {
			t.Errorf("%s: slot occupancy χ² = %.1f on %d dof, p = %.5f — layout is not a uniform subset", tc.name, stat, tc.n-2, pv)
		}
	}
}
