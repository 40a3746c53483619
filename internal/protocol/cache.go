package protocol

import (
	"fmt"
	"math"
	"sync/atomic"
)

// cacheLimit bounds what an AdoptCache holds: populations below it get a
// dense per-count table, allocated a page at a time on first touch (16 B
// per count, so at most ~16 MB), and larger ones a map that is emptied
// once it holds cacheLimit counts, so no run can grow it without limit.
const cacheLimit = 1 << 20

// pageBits sets the dense table's page: 512 counts, 8 KiB.
const pageBits = 9

// AdoptCache memoizes a Rule's adopt probabilities (P₀, P₁) of Eq. 4 for a
// fixed population size n, keyed on the exact one-count x (so p = x/n and
// the cached values are bit-identical to calling AdoptProb directly — no
// quantization error). The O(ℓ) pmf recurrence is paid once per distinct
// count instead of once per lookup. Construction allocates no table, so a
// cache costs nothing until it is used.
//
// An AdoptCache is NOT safe for concurrent use; give each worker goroutine
// its own cache (they warm up independently and stay coherent because the
// underlying computation is deterministic).
type AdoptCache struct {
	rule *Rule
	n    int64

	// Exactly one of pages/sparse is used, chosen by n at construction.
	pages  []*cachePage
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

// cachePage is one page of the dense table; a NaN p0 marks a count not
// yet computed.
type cachePage [1 << pageBits]cachedPair

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
	if n < cacheLimit {
		c.pages = make([]*cachePage, n>>pageBits+1)
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
	if c.pages != nil {
		pg := c.pages[x>>pageBits]
		if pg == nil {
			pg = new(cachePage)
			for i := range pg {
				pg[i].p0 = math.NaN()
			}
			c.pages[x>>pageBits] = pg
		}
		pair := &pg[x&(1<<pageBits-1)]
		if math.IsNaN(pair.p0) {
			*pair = c.compute(x)
		} else {
			c.hits++
		}
		return pair.p0, pair.p1
	}
	if pair, ok := c.sparse[x]; ok {
		c.hits++
		return pair.p0, pair.p1
	}
	if len(c.sparse) == cacheLimit {
		clear(c.sparse)
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
