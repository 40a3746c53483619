package engine

import (
	"bitspread/internal/rng"
)

// AgentOptions tunes the literal agent-level simulator.
type AgentOptions struct {
	// Shards splits the bitset engine's per-round loop over that many
	// goroutines, each consuming its own Split-derived random stream over
	// a fixed word-aligned range of agents. Results are bit-reproducible
	// given (seed, Shards) regardless of GOMAXPROCS or scheduling; values
	// <= 1 select the serial body. The literal body (Unpacked) is serial
	// and ignores it.
	Shards int
	// Unpacked forces the literal byte-per-opinion reference body instead
	// of the bitset engine (see packed.go). The two sample from the same
	// per-round distribution — the bitset engine draws each agent's next
	// opinion from its Eq. 4 adoption law instead of sampling indices, so
	// realizations for a given seed differ — and each is deterministic in
	// (seed, Config, Shards). The flag exists for benchmarks and
	// equivalence tests, and for callers that need the historical
	// realization for a fixed seed.
	Unpacked bool
	// Chunked does nothing: the bitset engine has one flat layout.
	//
	// Deprecated: kept only until benchmark/layers.go stops setting it;
	// leave it unset.
	Chunked bool
}

// RunAgents simulates the parallel setting literally, agent by agent, per
// the model definition in Section 1.1: in every round each non-source
// agent i draws a vector of ℓ agent indices uniformly at random with
// replacement, counts the ones among the sampled opinions, and redraws its
// opinion from g^[b](k). Agent 0 is the source and always holds z.
//
// By default opinions live in the bitset engine (packed.go), which draws
// each agent's next opinion from the same per-round law 64 agents at a
// time and splits rounds over opts.Shards goroutines. opts.Unpacked
// forces the literal byte-per-opinion reference body, O(n·ℓ) per round on
// one stream (Result.Shards is 1 whatever opts.Shards asks); it exists to
// cross-validate the other engines and to host per-agent extensions.
func RunAgents(cfg Config, opts AgentOptions, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if !opts.Unpacked {
		return runAgentsPacked(cfg, opts, g), nil
	}
	b := &literalBody{g: g, ell: cfg.Rule.SampleSize(), cur: initialOpinions(cfg, g), next: make([]uint8, cfg.N)}
	return newDriver(&cfg, 1, 1).run(b)[0], nil
}

// literalBody is the literal engine's step: one replica whose opinions are
// one byte per agent, cur this round's and next the round's output.
type literalBody struct {
	g         *rng.RNG
	ell       int
	cur, next []uint8
}

func (b *literalBody) round(d *driver) {
	g, cur, next := b.g, b.cur, b.next
	n := len(cur)
	rule := d.cfg.Rule
	if d.faults != nil {
		cur[0] = uint8(d.src)
		if d.boundary {
			d.faults.PerturbAgents(d.t, cur, g)
		}
	}
	omitQ, pinnedEnd := d.omit, 1+int(d.stub1+d.stub0)
	next[0] = uint8(d.src)
	count := int64(next[0])
	var sampled int64
	for i := 1; i < pinnedEnd; i++ {
		// Stubborn agents keep the opinion the boundary pinned them at.
		next[i] = cur[i]
		count += int64(cur[i])
	}
	for i := pinnedEnd; i < n; i++ {
		if omitQ > 0 && g.Bernoulli(omitQ) {
			next[i] = cur[i]
			count += int64(cur[i])
			continue
		}
		k := 0
		for s := 0; s < b.ell; s++ {
			k += int(cur[g.Intn(n)])
		}
		sampled++
		if g.Bernoulli(rule.G(int(cur[i]), k)) {
			next[i] = 1
			count++
		} else {
			next[i] = 0
		}
	}
	b.cur, b.next = next, cur
	d.end(0, count, sampled)
}

// initialOpinions lays out a configuration with X0 ones: the source (index
// 0) holds z and the remaining ones are assigned to a uniformly random set
// of non-source agents. Which agents start with which opinion is
// irrelevant to the count process (agents are anonymous), but randomizing
// keeps the agent engine honest for per-agent extensions.
//
// The ones are placed by Floyd's subset-sampling algorithm, which draws
// exactly onesToPlace variates and uses the opinion array itself as the
// membership set — O(X0) work instead of a full n-permutation.
func initialOpinions(cfg Config, g *rng.RNG) []uint8 {
	n := int(cfg.N)
	ops := make([]uint8, n)
	ops[0] = uint8(cfg.Z)
	onesToPlace := int(cfg.X0) - cfg.Z
	m := n - 1 // candidate non-source slots, ops[1..n-1]
	for j := m - onesToPlace; j < m; j++ {
		t := g.Intn(j + 1)
		if ops[1+t] == 1 {
			ops[1+j] = 1
		} else {
			ops[1+t] = 1
		}
	}
	return ops
}
