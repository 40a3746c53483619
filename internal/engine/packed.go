package engine

import (
	"sync"

	"bitspread/internal/rng"
)

// This file is the bitset agent engine, the default body of RunAgents:
// opinions live one bit per agent (chunked.go; 8× less memory traffic than
// the historical []uint8 layout, so the population stays cache-resident
// far longer), and every round decides 64 agents per handful of random
// words through the word-parallel kernel (kernel.go), which draws each
// agent's next opinion straight from its Eq. 4 adoption law instead of
// sampling ℓ indices. Serial, sharded, chunked and replica-batched runs
// all share that kernel; they differ only in how agents are split among
// workers and how words are addressed.
//
// The engine draws each round's transition from the same law as the
// historical byte-per-opinion body, at the 53-bit granularity at which
// rng.Bernoulli/rng.Binomial resolve probabilities everywhere in the repo.
// Realizations for a given seed differ from the unpacked body's —
// spending less randomness per agent is the point — so runs are
// reproducible per engine (same seed, Config, Shards ⇒ same Result) but
// not across the packed/unpacked pair; the χ² suites
// (equivalence_chi_test.go, onestep_chi_test.go) pin the distributional
// agreement, with each other and with the exact one-step law, under every
// fault family. AgentOptions.Unpacked forces the historical body;
// without-replacement sampling falls back to it on its own.

// lineWords is the cache-line granularity of shard ownership: 8 words of
// 64 opinions each, so one shard's round flips never dirty a cache line
// another shard writes (false-sharing-free by construction, not by luck).
const lineWords = 8

// packedWordBounds partitions nWords bitset words into shards contiguous
// ranges: bounds[s] is the first word of shard s and bounds[shards] ==
// nWords. Ranges are aligned to cache-line (8-word) multiples whenever
// shards ≤ lines, so concurrent round flips are false-sharing-free; with
// more shards than lines the split degrades to word granularity (still
// write-exclusive per word, never per bit). Callers must clamp shards to
// [1, nWords] first (packedEffectiveShards), which guarantees every
// shard at least one whole word.
func packedWordBounds(nWords, shards int) []int {
	bounds := make([]int, shards+1)
	lines := (nWords + lineWords - 1) / lineWords
	if shards <= lines {
		for s := 1; s < shards; s++ {
			bounds[s] = (s * lines / shards) * lineWords
		}
	} else {
		for s := 1; s < shards; s++ {
			bounds[s] = s * nWords / shards
		}
	}
	bounds[shards] = nWords
	return bounds
}

// MaxPackedShards returns the largest usable shard count of the bitset
// engine for a population of n agents: one shard per 64-opinion bitset
// word, because a shard must own at least one whole word to keep round
// flips write-exclusive. Requests above it are clamped — Result.Shards
// reports the resolved value — and front-ends may prefer to reject them
// outright (bitsim does).
func MaxPackedShards(n int64) int { return int((n + 63) >> 6) }

// packedEffectiveShards clamps a requested shard count to [1, nWords]: a
// packed shard owns whole 64-opinion words, so there can be no more
// shards than words. Result.Shards reports this resolved value.
func packedEffectiveShards(requested, nWords int) int {
	if requested > nWords {
		requested = nWords
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

// packedWorker is one agent range of the bitset engine: the serial engine
// is a single worker spanning [1, n) on the main stream; the sharded
// engine runs one per shard on Split-derived streams over word-aligned
// ranges (packedWordBounds), so every bitset word — in whichever chunk —
// has exactly one writer and rounds need no partial-word merge. The
// trailing pad keeps the per-round stores of adjacent workers on distinct
// cache lines (the workers are small heap objects that would otherwise
// share one).
type packedWorker struct {
	lo, hi  int64 // global agent index range [lo, hi)
	s       *wordStream
	ones    int64      // ones written in the last round
	updated int64      // agents that updated in the last round
	_       [11]uint64 // pad to 128 B: no false sharing between workers
}

// step advances the worker's range one round, chunk segment by chunk
// segment on one stream.
func (w *packedWorker) step(cur, next *chunkedBits, law *roundLaw, pinnedEnd int64) {
	w.ones, w.updated = 0, 0
	for i := w.lo; i < w.hi; {
		c := i >> cur.shift
		base := c << cur.shift
		end := min(base+int64(1)<<cur.shift, w.hi)
		ones, updated := stepWords(w.s, cur.chunks[c], next.chunks[c], base, i, end, pinnedEnd, law)
		w.ones += ones
		w.updated += updated
		i = end
	}
}

// packedParams is the per-Config immutable context of the bitset engine:
// everything derived from (Config, options) without consuming randomness.
// One packedParams can drive many replicas (RunAgentsReplicas), each with
// its own packedState.
type packedParams struct {
	cfg       Config
	shift     uint // chunk capacity of the layout
	shards    int  // resolved shard count (packedEffectiveShards)
	absorbing bool
	target    int64
	trap      int64
	roundCap  int64
	horizon   int64
	faults    Perturber
}

func newPackedParams(cfg Config, opts AgentOptions) *packedParams {
	p := &packedParams{
		cfg:       cfg,
		shift:     packedChunkShift,
		absorbing: cfg.Rule.CheckProp3() == nil,
		target:    consensusTarget(cfg.N, cfg.Z),
		trap:      wrongTrap(cfg.N, cfg.Z),
		roundCap:  cfg.maxRounds(),
		faults:    cfg.perturber(),
	}
	if opts.Chunked {
		p.shift = chunkShift
	}
	p.shards = packedEffectiveShards(opts.Shards, MaxPackedShards(cfg.N))
	p.horizon = faultHorizon(p.faults)
	return p
}

// adoptCoins returns the adoption coins of a round whose agents sample
// from one-count x: P_0(x/n) and P_1(x/n) of Eq. 4. The solo runner's
// adoptFunc.
func (p *packedParams) adoptCoins(x int64) [2]coin {
	frac := float64(x) / float64(p.cfg.N)
	return [2]coin{
		newCoin(rng.BernoulliThreshold(p.cfg.Rule.AdoptProb(0, frac))),
		newCoin(rng.BernoulliThreshold(p.cfg.Rule.AdoptProb(1, frac))),
	}
}

// adoptFunc supplies a round's adoption coins for a given one-count. The
// solo runner computes them in place (adoptCoins); the replica-batched
// runner memoizes them per distinct count, which is exact — they are a
// pure function of x — so batched and solo trajectories coincide
// realization-by-realization.
type adoptFunc func(x int64) [2]coin

// packedState is one replica of the bitset engine: its generator, bitsets,
// workers and partial Result.
type packedState struct {
	g         *rng.RNG
	cur, next *chunkedBits
	x         int64
	scratch   []uint8
	workers   []*packedWorker
	wg        sync.WaitGroup
	res       Result
}

// newState draws a replica's initial configuration from g and lays out its
// workers. The main stream serves initialization and, in the serial case,
// the round loop itself. Its block pre-draws words, so the generator may
// end up advanced past the variates actually consumed; chained runs on
// one generator should Split it per run. Shard streams are derived after
// initialization (SplitN on the same generator), so a given seed yields
// the same starting layout at every shard count.
func (p *packedParams) newState(g *rng.RNG) *packedState {
	main := newWordStream(g)
	st := &packedState{g: g, cur: initialBits(p.cfg, p.shift, main), x: p.cfg.X0}
	st.next = newChunkedBits(p.cfg.N, p.shift)
	st.res = Result{FinalCount: st.x, Shards: p.shards}
	if st.x == p.target && p.absorbing && p.horizon == 0 {
		st.res.Converged = true
		return st
	}
	st.workers = make([]*packedWorker, p.shards)
	if p.shards == 1 {
		st.workers[0] = &packedWorker{lo: 1, hi: p.cfg.N, s: main}
		return st
	}
	// Word-aligned, cache-line-padded agent ranges: every bitset word has
	// exactly one writer and shard ranges start on 64-byte boundaries;
	// chunk boundaries fall on word boundaries by construction, so the two
	// alignments compose. Each shard consumes its own Split-derived stream;
	// boundary draws stay on the main generator, so rounds are
	// reproducible for a given (seed, Shards) regardless of GOMAXPROCS or
	// scheduling.
	bounds := packedWordBounds(MaxPackedShards(p.cfg.N), p.shards)
	streams := g.SplitN(p.shards)
	for s := range st.workers {
		lo := int64(bounds[s]) << 6
		if lo == 0 {
			lo = 1 // bit 0 is the coordinator-owned source bit
		}
		hi := min(int64(bounds[s+1])<<6, p.cfg.N)
		st.workers[s] = &packedWorker{lo: lo, hi: hi, s: newWordStream(streams[s])}
	}
	return st
}

// round advances one replica a single parallel round and reports whether
// the run is finished (converged). The caller owns the Halt poll.
func (p *packedParams) round(st *packedState, t int64, adopt adoptFunc) (done bool) {
	cfg := &p.cfg
	src := cfg.Z
	var law roundLaw
	pinnedEnd := int64(1)
	xs := st.x
	if p.faults != nil {
		src, st.scratch = chunkedBoundary(p.faults, t, cfg.Z, st.cur, st.scratch, st.g)
		law.omit = newCoin(rng.BernoulliThreshold(p.faults.OmitProb(t)))
		s1, s0 := p.faults.Stubborn(t, cfg.N)
		pinnedEnd = 1 + s1 + s0
		// The adoption law conditions on the one-count the agents sample
		// from; the boundary may just have rewritten the bitset.
		xs = st.cur.count()
	}
	law.adopt = adopt(xs)
	if p.shards == 1 {
		st.workers[0].step(st.cur, st.next, &law, pinnedEnd)
	} else {
		for _, w := range st.workers {
			st.wg.Add(1)
			go func(w *packedWorker) {
				defer st.wg.Done()
				w.step(st.cur, st.next, &law, pinnedEnd)
			}(w)
		}
		st.wg.Wait()
	}

	// Fixed-order reduction of the per-shard counts, then the
	// coordinator-owned source bit.
	count := int64(src)
	var roundUpdated int64
	for _, w := range st.workers {
		count += w.ones
		roundUpdated += w.updated
	}
	st.res.Activations += roundUpdated
	st.next.chunks[0][0] |= uint64(src)

	st.cur, st.next = st.next, st.cur
	st.x = count
	st.res.Rounds = t
	st.res.FinalCount = st.x
	if st.x == p.trap {
		st.res.HitWrongConsensus = true
	}
	if cfg.Record != nil {
		cfg.Record(t, st.x)
	}
	if cfg.Probe != nil {
		if p.shards > 1 {
			for s, w := range st.workers {
				cfg.Probe.ShardRound(s, w.updated)
			}
		}
		probeRound(cfg.Probe, p.faults, t, cfg.Z, src, st.x, roundUpdated)
	}
	if st.x == p.target && p.absorbing && t >= p.horizon {
		st.res.Converged = true
		return true
	}
	return false
}

// runAgentsPacked is the bitset body of RunAgents, serial for resolved
// shards == 1 and sharded otherwise. Both are deterministic in
// (seed, Config, Shards) and draw from the same per-round distribution
// as the unpacked bodies.
func runAgentsPacked(cfg Config, opts AgentOptions, g *rng.RNG) (Result, error) {
	p := newPackedParams(cfg, opts)
	st := p.newState(g)
	if st.res.Converged {
		return st.res, nil
	}
	for t := int64(1); t <= p.roundCap; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			st.res.Interrupted = true
			return st.res, nil
		}
		if p.round(st, t, p.adoptCoins) {
			break
		}
	}
	return st.res, nil
}
