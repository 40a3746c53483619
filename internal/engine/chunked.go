package engine

import (
	"math/bits"

	"bitspread/internal/rng"
)

// This file is the opinion layout of the bitset agent engine: one bit per
// agent, held as fixed-capacity chunks so nothing assumes the population
// fits one slice or a 32-bit index. The round kernel (kernel.go) samples
// no indices, so it runs unchanged on each chunk's words; the chunk
// capacity changes addressing only, never a realization.

// packedChunkShift is the log₂ chunk capacity, in agents, of the default
// layout: 2³² opinions, 512 MiB per bitset chunk, so every n < 2³² is one
// chunk.
const packedChunkShift = 32

// chunkShift is the chunk capacity AgentOptions.Chunked selects. It equals
// the default; tests shrink it to exercise multi-chunk runs at
// testing-sized n. It is package state only for that override — every run
// reads it once at state construction.
var chunkShift uint = packedChunkShift

// chunkedBits holds n opinion bits as fixed-capacity chunks of
// 2^shift bits. Word w of the population lives at
// chunks[w>>(shift-6)][w&(chunkWords-1)]: every chunk except the last
// holds exactly chunkWords words, so global word addressing never scans.
type chunkedBits struct {
	n      int64
	shift  uint
	chunks [][]uint64
}

func newChunkedBits(n int64, shift uint) *chunkedBits {
	size := int64(1) << shift
	cb := &chunkedBits{n: n, shift: shift, chunks: make([][]uint64, (n+size-1)>>shift)}
	for c := range cb.chunks {
		hi := size
		if rem := n - int64(c)<<shift; rem < hi {
			hi = rem
		}
		cb.chunks[c] = make([]uint64, int((hi+63)>>6))
	}
	return cb
}

// get returns opinion bit i.
func (cb *chunkedBits) get(i int64) uint64 {
	c := cb.chunks[i>>cb.shift]
	j := i & (int64(1)<<cb.shift - 1)
	return (c[j>>6] >> (uint(j) & 63)) & 1
}

// set stores opinion bit i.
func (cb *chunkedBits) set(i int64, bit uint64) {
	c := cb.chunks[i>>cb.shift]
	j := i & (int64(1)<<cb.shift - 1)
	mask := uint64(1) << (uint(j) & 63)
	if bit != 0 {
		c[j>>6] |= mask
	} else {
		c[j>>6] &^= mask
	}
}

// count returns the number of one-bits across all chunks.
func (cb *chunkedBits) count() int64 {
	var c int
	for _, chunk := range cb.chunks {
		for _, w := range chunk {
			c += bits.OnesCount64(w)
		}
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
func initialBits(cfg Config, shift uint, s *wordStream) *chunkedBits {
	cb := newChunkedBits(cfg.N, shift)
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
	for c, chunk := range cb.chunks {
		base := int64(c) << shift
		for wi := range chunk {
			first := base + int64(wi)<<6
			chunk[wi] = s.draw(lanesFrom(first, 1)&^lanesFrom(first, cfg.N), 0, &fill, &fill)
		}
	}
	switch {
	case dense:
		ones := cb.count()
		for ones != k {
			i := 1 + int64(s.below(uint64(m)))
			if bit := cb.get(i); ones > k && bit == 1 || ones < k && bit == 0 {
				cb.set(i, 1-bit)
				ones += 1 - 2*int64(bit)
			}
		}
	case k > m/64:
		floyd(cb, m-k, m, 1, s)
	default:
		floyd(cb, k, m, 0, s)
	}
	cb.set(0, uint64(cfg.Z))
	return cb
}

// floyd marks a uniform k-subset of slots 1..m by Floyd's subset-sampling
// walk: exactly k variates, with the bitset itself as the membership set.
// A slot is marked when its bit differs from inv, so inv = 1 marks by
// clearing bits of an all-one background.
func floyd(cb *chunkedBits, k, m int64, inv uint64, s *wordStream) {
	for j := m - k; j < m; j++ {
		t := int64(s.below(uint64(j + 1)))
		// Mark slot j when slot t is already marked, t otherwise, without
		// a branch: membership is unpredictable, so a data-dependent branch
		// would mispredict its way through the walk.
		b := int64(cb.get(1+t) ^ inv)
		cb.set(1+(t^((t^j)&-b)), 1^inv)
	}
}

// chunkedBoundary applies the current round's fault boundary to the
// bitset: the source bit takes its scheduled opinion and boundary events
// rewrite non-source opinions through an unpack → PerturbAgents → repack
// round-trip. Boundary events are point events (rare rounds), so the O(n)
// scratch slice is paid only when opinions are rewritten, and reused.
func chunkedBoundary(d *driver, cur *chunkedBits, scratch []uint8, g *rng.RNG) []uint8 {
	cur.set(0, uint64(d.src))
	if d.boundary {
		if scratch == nil {
			scratch = make([]uint8, cur.n)
		}
		for i := int64(0); i < cur.n; i++ {
			scratch[i] = uint8(cur.get(i))
		}
		d.faults.PerturbAgents(d.t, scratch, g)
		for _, c := range cur.chunks {
			clear(c)
		}
		for i := int64(0); i < cur.n; i++ {
			if scratch[i] != 0 {
				cur.set(i, 1)
			}
		}
	}
	return scratch
}
