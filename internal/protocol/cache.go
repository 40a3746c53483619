package protocol

import (
	"fmt"
	"math"
	"sync/atomic"
)

// denseCacheLimit bounds the population size for which the cache
// preallocates a dense per-count table (16 B per count, so at most ~16 MB).
// Larger populations fall back to a map, which stays small in practice
// because a run visits only a thin band of counts around its trajectory.
const denseCacheLimit = 1 << 20

// AdoptCache memoizes a Rule's adopt probabilities (P₀, P₁) of Eq. 4 for a
// fixed population size n, keyed on the exact one-count x (so p = x/n and
// the cached values are bit-identical to calling AdoptProb directly — no
// quantization error). The O(ℓ) pmf recurrence is paid once per distinct
// count instead of once per replica-round, which is what makes batched
// replica stepping cheap in the ℓ = √(n log n) regime.
//
// An AdoptCache is NOT safe for concurrent use; give each worker goroutine
// its own cache (they warm up independently and stay coherent because the
// underlying computation is deterministic).
type AdoptCache struct {
	rule *Rule
	n    int64

	// Exactly one of dense/sparse is used, chosen by n at construction.
	dense  []cachedPair
	sparse map[int64]cachedPair

	hits, misses uint64

	// busy flags an in-flight Probs call while the package guard is on;
	// see SetAdoptCacheGuard.
	busy atomic.Int32
}

// adoptCacheGuard enables the concurrent-misuse assertion in Probs.
var adoptCacheGuard atomic.Bool

// SetAdoptCacheGuard toggles a debug assertion that catches the one
// forbidden use of AdoptCache: two goroutines sharing a cache. While on,
// Probs atomically claims the cache for the duration of the call and
// panics with a diagnostic — before the racing map/slice access can
// corrupt anything — if the cache is already claimed. The previous
// setting is returned so tests can restore it.
//
// The guard costs one atomic load per lookup when off and a CAS pair when
// on; it is meant for tests (notably under -race) and debugging sessions,
// not for steady-state sweeps.
func SetAdoptCacheGuard(on bool) (prev bool) {
	return adoptCacheGuard.Swap(on)
}

type cachedPair struct {
	p0, p1 float64
}

// NewAdoptCache returns an empty cache for rule r over a population of n
// agents. It panics if r is nil or n < 2 (mirroring the engine's
// population contract).
func NewAdoptCache(r *Rule, n int64) *AdoptCache {
	if r == nil {
		panic("protocol: NewAdoptCache called with nil rule")
	}
	if n < 2 {
		panic(fmt.Sprintf("protocol: NewAdoptCache called with population %d", n))
	}
	c := &AdoptCache{rule: r, n: n}
	if n < denseCacheLimit {
		c.dense = make([]cachedPair, n+1)
		for i := range c.dense {
			c.dense[i] = cachedPair{p0: math.NaN(), p1: math.NaN()}
		}
	} else {
		c.sparse = make(map[int64]cachedPair)
	}
	return c
}

// N returns the population size the cache was built for.
func (c *AdoptCache) N() int64 { return c.n }

// Probs returns (P₀(x/n), P₁(x/n)), computing and memoizing them on first
// use. It panics if x is outside [0, n].
func (c *AdoptCache) Probs(x int64) (p0, p1 float64) {
	if adoptCacheGuard.Load() {
		if !c.busy.CompareAndSwap(0, 1) {
			panic("protocol: AdoptCache.Probs called concurrently; an AdoptCache is single-goroutine — give each worker its own cache")
		}
		defer c.busy.Store(0)
	}
	if x < 0 || x > c.n {
		panic(fmt.Sprintf("protocol: AdoptCache.Probs count %d outside [0,%d]", x, c.n))
	}
	if c.dense != nil {
		pair := c.dense[x]
		if !math.IsNaN(pair.p0) {
			c.hits++
			return pair.p0, pair.p1
		}
		pair = c.compute(x)
		c.dense[x] = pair
		return pair.p0, pair.p1
	}
	if pair, ok := c.sparse[x]; ok {
		c.hits++
		return pair.p0, pair.p1
	}
	pair := c.compute(x)
	c.sparse[x] = pair
	return pair.p0, pair.p1
}

func (c *AdoptCache) compute(x int64) cachedPair {
	c.misses++
	p := float64(x) / float64(c.n)
	return cachedPair{
		p0: c.rule.AdoptProb(0, p),
		p1: c.rule.AdoptProb(1, p),
	}
}

// Stats reports how many lookups were served from the cache and how many
// required an O(ℓ) evaluation, for instrumentation and tests.
func (c *AdoptCache) Stats() (hits, misses uint64) { return c.hits, c.misses }
