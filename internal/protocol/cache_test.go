package protocol

import (
	"math"
	"testing"
)

// TestAdoptCacheMatchesAdoptProb: cached values must agree with the direct
// Eq. 4 evaluation to 1e-12 (they are in fact the same computation, so we
// additionally demand bit equality) across rules, sample sizes, both
// storage regimes and the dense table's page boundaries.
func TestAdoptCacheMatchesAdoptProb(t *testing.T) {
	bigEll := SqrtNLogN(1).Of(4096)
	rules := []*Rule{
		Voter(1), Voter(3), Minority(3), Minority(bigEll),
		Majority(5), TwoChoice(), BiasedVoter(3, 0.2), AntiVoter(2),
	}
	for _, n := range []int64{2, 64, 4096, cacheLimit - 1, cacheLimit + 7} {
		for _, r := range rules {
			c := NewAdoptCache(r, n)
			counts := []int64{0, 1, n / 3, n / 2, n - 1, n}
			if n == 4096 || n == cacheLimit-1 {
				counts = append(counts, 511, 512, 513)
			}
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
	const n = int64(cacheLimit) * 4
	c := NewAdoptCache(Voter(1), n)
	p0, p1 := c.Probs(n / 2)
	if math.Abs(p0-0.5) > 1e-12 || math.Abs(p1-0.5) > 1e-12 {
		t.Errorf("Voter at p=1/2: got (%v,%v), want (0.5,0.5)", p0, p1)
	}
}

// TestAdoptCacheSparseBounded: the map serving populations above the
// dense limit never holds more than cacheLimit counts, however many
// distinct counts a run visits, and a count looked up again after the map
// was emptied still gets AdoptProb's bits.
func TestAdoptCacheSparseBounded(t *testing.T) {
	const n = int64(1) << 24
	r := Voter(3)
	c := NewAdoptCache(r, n)
	for i := int64(0); i < 3*cacheLimit; i++ {
		x := i * 5 % n
		p0, p1 := c.Probs(x)
		if len(c.sparse) > cacheLimit {
			t.Fatalf("after %d distinct counts the map holds %d, want at most %d", i+1, len(c.sparse), cacheLimit)
		}
		if i%4099 == 0 || i >= 3*cacheLimit-4 {
			p := float64(x) / float64(n)
			if p0 != r.AdoptProb(0, p) || p1 != r.AdoptProb(1, p) {
				t.Fatalf("x=%d: cache (%v,%v) not bit-identical to AdoptProb", x, p0, p1)
			}
		}
	}
	if _, misses := c.Stats(); misses != 3*cacheLimit {
		t.Errorf("misses = %d, want %d (every count distinct)", misses, 3*cacheLimit)
	}
	for _, x := range []int64{0, 5, n / 2} { // emptied long ago: computed afresh
		p := float64(x) / float64(n)
		if p0, p1 := c.Probs(x); p0 != r.AdoptProb(0, p) || p1 != r.AdoptProb(1, p) {
			t.Errorf("x=%d after emptying: cache (%v,%v) not bit-identical to AdoptProb", x, p0, p1)
		}
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
