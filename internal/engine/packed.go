package engine

import (
	"sync"

	"bitspread/internal/rng"
)

// This file is the bitset agent engine, the default body of RunAgents:
// opinions live one bit per agent (bitset.go; 8× less memory traffic than
// the historical []uint8 layout, so the population stays cache-resident
// far longer), and every round decides 64 agents per handful of random
// words through the word-parallel kernel (kernel.go), which draws each
// agent's next opinion straight from its Eq. 4 adoption law instead of
// sampling ℓ indices. Serial, sharded and replica-batched runs all share
// that kernel; they differ only in how agents are split among workers.
//
// The engine draws each round's transition from the same law as the
// literal byte-per-opinion body, at the 53-bit granularity at which
// rng.Bernoulli/rng.Binomial resolve probabilities everywhere in the repo.
// Realizations for a given seed differ from the unpacked body's —
// spending less randomness per agent is the point — so runs are
// reproducible per engine (same seed, Config, Shards ⇒ same Result) but
// not across the packed/unpacked pair; the exact-law suite
// (exact_law_test.go) checks whole runs of both against the exact chain
// under every fault family. AgentOptions.Unpacked forces the literal body.

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
// ranges (packedWordBounds), so every bitset word has exactly one writer
// and rounds need no partial-word merge. The trailing pad keeps the
// per-round stores of adjacent workers on distinct cache lines (the
// workers are small heap objects that would otherwise share one).
type packedWorker struct {
	lo, hi  int64 // global agent index range [lo, hi)
	s       *wordStream
	ones    int64      // ones written in the last round
	updated int64      // agents that updated in the last round
	_       [11]uint64 // pad to 128 B: no false sharing between workers
}

// step advances the worker's range one round on its stream.
func (w *packedWorker) step(cur, next bitset, law *roundLaw, pinnedEnd int64) {
	w.ones, w.updated = stepWords(w.s, cur, next, w.lo, w.hi, pinnedEnd, law)
}

// bitsetBody is the bitset engine's step over one or more lockstep
// replicas: RunAgents runs one, RunAgentsReplicas many, each with its own
// packedState.
type bitsetBody struct {
	cfg    *Config
	shards int // resolved shard count (packedEffectiveShards)
	states []*packedState
	// memo holds a replica batch's adoption coins per one-count; a solo
	// run (nil memo) computes them in place.
	memo map[int64][2]coin
}

func newBitsetBody(cfg *Config, opts AgentOptions) *bitsetBody {
	return &bitsetBody{cfg: cfg, shards: packedEffectiveShards(opts.Shards, MaxPackedShards(cfg.N))}
}

// adopt returns the adoption coins of a round whose agents sample from
// one-count x: P_0(x/n) and P_1(x/n) of Eq. 4. They are a pure function of
// x, so memoizing them across a batch is exact: batched and solo
// trajectories coincide realization by realization. Lookup-only access (no
// map iteration) keeps the batch deterministic.
func (b *bitsetBody) adopt(x int64) [2]coin {
	if c, ok := b.memo[x]; ok {
		return c
	}
	frac := float64(x) / float64(b.cfg.N)
	c := [2]coin{
		newCoin(rng.BernoulliThreshold(b.cfg.Rule.AdoptProb(0, frac))),
		newCoin(rng.BernoulliThreshold(b.cfg.Rule.AdoptProb(1, frac))),
	}
	if b.memo != nil {
		b.memo[x] = c
	}
	return c
}

// packedState is one replica of the bitset engine: its generator, bitsets
// and workers.
type packedState struct {
	g         *rng.RNG
	cur, next bitset
	x         int64
	scratch   []uint8
	workers   []*packedWorker
	wg        sync.WaitGroup
}

// newState draws a replica's initial configuration from g and lays out its
// workers. The main stream serves initialization and, in the serial case,
// the round loop itself. Its block pre-draws words, so the generator may
// end up advanced past the variates actually consumed; chained runs on
// one generator should Split it per run. Shard streams are derived after
// initialization (SplitN on the same generator), so a given seed yields
// the same starting layout at every shard count.
func (b *bitsetBody) newState(g *rng.RNG) *packedState {
	n := b.cfg.N
	main := newWordStream(g)
	st := &packedState{g: g, cur: initialBits(*b.cfg, main), next: newBitset(n), x: b.cfg.X0}
	st.workers = make([]*packedWorker, b.shards)
	if b.shards == 1 {
		st.workers[0] = &packedWorker{lo: 1, hi: n, s: main}
		return st
	}
	// Word-aligned, cache-line-padded agent ranges: every bitset word has
	// exactly one writer and shard ranges start on 64-byte boundaries.
	// Each shard consumes its own Split-derived stream; boundary draws stay
	// on the main generator, so rounds are reproducible for a given (seed,
	// Shards) regardless of GOMAXPROCS or scheduling.
	bounds := packedWordBounds(MaxPackedShards(n), b.shards)
	streams := g.SplitN(b.shards)
	for s := range st.workers {
		lo := int64(bounds[s]) << 6
		if lo == 0 {
			lo = 1 // bit 0 is the coordinator-owned source bit
		}
		hi := min(int64(bounds[s+1])<<6, n)
		st.workers[s] = &packedWorker{lo: lo, hi: hi, s: newWordStream(streams[s])}
	}
	return st
}

// round advances every active replica one parallel round. A retired
// replica drops its state, so a batch's live bitsets shrink as it runs.
func (b *bitsetBody) round(d *driver) {
	cfg := b.cfg
	omit := newCoin(rng.BernoulliThreshold(d.omit))
	pinnedEnd := 1 + d.stub1 + d.stub0
	for _, i := range d.active {
		st := b.states[i]
		law := roundLaw{omit: omit}
		xs := st.x
		if d.faults != nil {
			st.scratch = bitsetBoundary(d, st.cur, st.scratch, st.g)
			// The adoption law conditions on the one-count the agents
			// sample from; the boundary may just have rewritten the bitset.
			xs = st.cur.count()
		}
		law.adopt = b.adopt(xs)
		if b.shards == 1 {
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
		count := int64(d.src)
		var updated int64
		for _, w := range st.workers {
			count += w.ones
			updated += w.updated
		}
		st.next[0] |= uint64(d.src)
		st.cur, st.next = st.next, st.cur
		st.x = count
		if cfg.Probe != nil && b.shards > 1 {
			for s, w := range st.workers {
				cfg.Probe.ShardRound(s, w.updated)
			}
		}
		if !d.end(i, count, updated) {
			b.states[i] = nil
		}
	}
}

// runAgentsPacked is the bitset body of RunAgents, serial for resolved
// shards == 1 and sharded otherwise. Both are deterministic in
// (seed, Config, Shards) and draw from the same per-round distribution
// as the literal body.
func runAgentsPacked(cfg Config, opts AgentOptions, g *rng.RNG) Result {
	b := newBitsetBody(&cfg, opts)
	d := newDriver(&cfg, 1, b.shards)
	b.states = []*packedState{b.newState(g)}
	return d.run(b)[0]
}
