package protocol

import (
	"math"
	"testing"
)

// TestAdoptCacheMatchesAdoptProb: cached values must agree with the direct
// Eq. 4 evaluation to 1e-12 (they are in fact the same computation, so we
// additionally demand bit equality) across rules, sample sizes, and both
// storage regimes.
func TestAdoptCacheMatchesAdoptProb(t *testing.T) {
	bigEll := SqrtNLogN(1).Of(4096)
	rules := []*Rule{
		Voter(1), Voter(3), Minority(3), Minority(bigEll),
		Majority(5), TwoChoice(), BiasedVoter(3, 0.2), AntiVoter(2),
	}
	for _, n := range []int64{2, 64, 4096, denseCacheLimit + 7} {
		for _, r := range rules {
			c := NewAdoptCache(r, n)
			counts := []int64{0, 1, n / 3, n / 2, n - 1, n}
			for pass := 0; pass < 2; pass++ { // second pass exercises hits
				for _, x := range counts {
					p0, p1 := c.Probs(x)
					p := float64(x) / float64(n)
					w0, w1 := r.AdoptProb(0, p), r.AdoptProb(1, p)
					if math.Abs(p0-w0) > 1e-12 || math.Abs(p1-w1) > 1e-12 {
						t.Fatalf("%v n=%d x=%d: cache (%v,%v) vs direct (%v,%v)",
							r, n, x, p0, p1, w0, w1)
					}
					if p0 != w0 || p1 != w1 {
						t.Errorf("%v n=%d x=%d: cache not bit-identical", r, n, x)
					}
				}
			}
		}
	}
}

// TestAdoptCacheHitAccounting: repeated lookups of the same count must be
// served from memory.
func TestAdoptCacheHitAccounting(t *testing.T) {
	c := NewAdoptCache(Minority(3), 100)
	for i := 0; i < 10; i++ {
		c.Probs(40)
	}
	c.Probs(41)
	hits, misses := c.Stats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 (distinct counts)", misses)
	}
	if hits != 9 {
		t.Errorf("hits = %d, want 9", hits)
	}
	if c.N() != 100 {
		t.Error("N disagrees with construction")
	}
}

// TestAdoptCacheSparseRegime: populations above the dense limit must work
// through the map path.
func TestAdoptCacheSparseRegime(t *testing.T) {
	const n = int64(denseCacheLimit) * 4
	c := NewAdoptCache(Voter(1), n)
	p0, p1 := c.Probs(n / 2)
	if math.Abs(p0-0.5) > 1e-12 || math.Abs(p1-0.5) > 1e-12 {
		t.Errorf("Voter at p=1/2: got (%v,%v), want (0.5,0.5)", p0, p1)
	}
}

func TestAdoptCachePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"nil rule":    func() { NewAdoptCache(nil, 10) },
		"tiny n":      func() { NewAdoptCache(Voter(1), 1) },
		"count below": func() { NewAdoptCache(Voter(1), 10).Probs(-1) },
		"count above": func() { NewAdoptCache(Voter(1), 10).Probs(11) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			f()
		})
	}
}
