package rng

import "math"

// This file holds the allocation-free fast paths of the bitset agent
// engine: block generation of raw words, 64-bit acceptance thresholds for
// division-free Bernoulli trials, and a fixed-bound uniform sampler with
// the Lemire rejection threshold hoisted out of the loop. Every fast path
// consumes the underlying xoshiro stream exactly like its scalar
// counterpart, so engines can mix them freely without perturbing
// reproducibility.

// FillUint64 fills dst with the generator's next len(dst) outputs. It is
// equivalent to calling Uint64 once per element but keeps the state in
// registers for the whole block.
func (r *RNG) FillUint64(dst []uint64) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
}

// BernoulliAlways is the threshold sentinel meaning "succeed with
// probability 1 without consuming randomness"; 0 symmetrically means
// "fail without consuming". Both arise naturally from BernoulliThreshold.
const BernoulliAlways = math.MaxUint64

// BernoulliThreshold converts a probability into a 64-bit acceptance
// threshold t. For p in (0, 1) the trial Uint64() < t succeeds exactly
// when Float64() < p would, so threshold-based trials reproduce the
// distribution of Bernoulli(p) bit-for-bit while replacing the float
// conversion and comparison with a single integer compare.
//
// Degenerate probabilities map to the non-consuming sentinels: p <= 0
// yields 0 and p >= 1 (as well as p so close to 1 that no 53-bit uniform
// can reach it) yields BernoulliAlways.
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return BernoulliAlways
	}
	t53 := uint64(math.Ceil(p * (1 << 53)))
	if t53 >= 1<<53 {
		// p > 1 - 2⁻⁵³: every representable uniform lies below p.
		return BernoulliAlways
	}
	// Float64() < p  ⟺  (u >> 11) < ⌈p·2⁵³⌉  ⟺  u < ⌈p·2⁵³⌉ << 11.
	return t53 << 11
}

// Bounded is a uniform sampler over the fixed range [0, n) with Lemire's
// rejection threshold precomputed at construction, for hot loops that draw
// many indices from the same range. Next produces the same values and
// consumes the same stream as RNG.Intn(n), so a Bounded can replace Intn
// mid-run without changing any sequence. The zero value is invalid;
// Bounded is immutable and safe to share across goroutines (each with its
// own RNG).
type Bounded struct {
	bound     uint64
	threshold uint64
}

// NewBounded returns a sampler over [0, n). It panics if n <= 0.
func NewBounded(n int) Bounded {
	if n <= 0 {
		panic("rng: NewBounded called with non-positive n")
	}
	bound := uint64(n)
	return Bounded{bound: bound, threshold: (-bound) % bound}
}

// Next returns a uniform integer in [0, n), identical in value and stream
// consumption to RNG.Intn(n).
func (b Bounded) Next(r *RNG) int {
	x := r.Uint64()
	hi, lo := mul64(x, b.bound)
	// threshold < bound, so lo < threshold implies the lazy Intn path
	// would have entered its rejection loop too — the sequences agree.
	for lo < b.threshold {
		x = r.Uint64()
		hi, lo = mul64(x, b.bound)
	}
	return int(hi)
}
