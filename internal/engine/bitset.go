package engine

import (
	"math/bits"

	"bitspread/internal/rng"
)

// This file is the opinion layout of the bitset agent engine: one bit per
// agent in one flat slice of words. Go slices index with a 64-bit int, so
// the layout serves any n that fits in memory.

// bitset holds n opinion bits: agent i sits at bit i&63 of word i>>6.
type bitset []uint64

func newBitset(n int64) bitset { return make(bitset, (n+63)>>6) }

// get returns opinion bit i.
func (b bitset) get(i int64) uint64 { return (b[i>>6] >> (uint(i) & 63)) & 1 }

// set stores opinion bit i.
func (b bitset) set(i int64, bit uint64) {
	mask := uint64(1) << (uint(i) & 63)
	if bit != 0 {
		b[i>>6] |= mask
	} else {
		b[i>>6] &^= mask
	}
}

// count returns the number of one-bits.
func (b bitset) count() int64 {
	var c int
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// initialBits lays out the initial configuration: the source slot 0 holds
// z and a uniform (X0−z)-subset of the m = n−1 other slots holds ones.
// When both the subset and its complement exceed m/64 slots, every slot
// first flips a Bernoulli(k/m) coin, 64 at a time through the round
// kernel's bit-sliced draw, and uniform rejection picks then add or remove
// ones until exactly k remain. The flipped set is uniform given its size,
// and removing a uniform member (or adding a uniform non-member) keeps it
// uniform, so the result is an exact uniform k-subset. Otherwise the
// smaller side is placed by Floyd's walk over an all-zero or all-one
// background, O(min(k, m−k)) draws.
func initialBits(cfg Config, s *wordStream) bitset {
	b := newBitset(cfg.N)
	k := cfg.X0 - int64(cfg.Z)
	m := cfg.N - 1
	dense := k > m/64 && m-k > m/64
	var fill coin // few ones: Floyd places them over zeros
	switch {
	case dense:
		//bitlint:probok 0 < m/64 < k < m in this branch, so k/m lies in (0, 1)
		fill = newCoin(rng.BernoulliThreshold(float64(k) / float64(m)))
	case k > m/64:
		fill = coin{always: ^uint64(0)} // few zeros: Floyd places them over ones
	}
	for wi := range b {
		first := int64(wi) << 6
		b[wi] = s.draw(lanesFrom(first, 1)&^lanesFrom(first, cfg.N), 0, &fill, &fill)
	}
	switch {
	case dense:
		ones := b.count()
		for ones != k {
			i := 1 + int64(s.below(uint64(m)))
			if bit := b.get(i); ones > k && bit == 1 || ones < k && bit == 0 {
				b.set(i, 1-bit)
				ones += 1 - 2*int64(bit)
			}
		}
	case k > m/64:
		floyd(b, m-k, m, 1, s)
	default:
		floyd(b, k, m, 0, s)
	}
	b.set(0, uint64(cfg.Z))
	return b
}

// floyd marks a uniform k-subset of slots 1..m by Floyd's subset-sampling
// walk: exactly k variates, with the bitset itself as the membership set.
// A slot is marked when its bit differs from inv, so inv = 1 marks by
// clearing bits of an all-one background.
func floyd(b bitset, k, m int64, inv uint64, s *wordStream) {
	for j := m - k; j < m; j++ {
		t := int64(s.below(uint64(j + 1)))
		// Mark slot j when slot t is already marked, t otherwise, without
		// a branch: membership is unpredictable, so a data-dependent branch
		// would mispredict its way through the walk.
		bit := int64(b.get(1+t) ^ inv)
		b.set(1+(t^((t^j)&-bit)), 1^inv)
	}
}

// bitsetBoundary applies the current round's fault boundary to the
// bitset: the source bit takes its scheduled opinion and boundary events
// rewrite non-source opinions through an unpack → PerturbAgents → repack
// round-trip. Boundary events are point events (rare rounds), so the O(n)
// scratch slice is paid only when opinions are rewritten, and reused.
func bitsetBoundary(d *driver, cur bitset, scratch []uint8, g *rng.RNG) []uint8 {
	cur.set(0, uint64(d.src))
	if d.boundary {
		n := d.cfg.N
		if scratch == nil {
			scratch = make([]uint8, n)
		}
		for i := int64(0); i < n; i++ {
			scratch[i] = uint8(cur.get(i))
		}
		d.faults.PerturbAgents(d.t, scratch, g)
		clear(cur)
		for i := int64(0); i < n; i++ {
			if scratch[i] != 0 {
				cur.set(i, 1)
			}
		}
	}
	return scratch
}
