package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// RunAggregated simulates the parallel agent-level process by aggregating
// agents into homogeneous opinion classes instead of iterating over them.
// Conditioned on X_t = x, every free (non-source, non-stubborn,
// non-omitted) agent's observed one-count k is an independent
// Binomial(ℓ, x/n) draw, so each opinion class advances by a multinomial
// split over k ∈ {0..ℓ} followed by a Binomial(cell, g^[b](k)) adoption
// draw per cell — O(classes·ℓ) per round instead of the literal engine's
// O(n·ℓ), and exact in distribution (the mixture Σ_k pmf(k)·g^[b](k) is
// precisely Eq. 4, so summing the per-cell adoptions reproduces
// Binomial(m_b, P_b(x/n)) — the χ² equivalence suite checks all three
// engines against each other, fault families included).
//
// The engine supports the full fault surface: boundary events and source
// flips act on the count (as in RunParallel), stubborn agents are carried
// as their own class, and omission thins each free class binomially before
// the split. What it cannot express is per-agent identity — anything that
// distinguishes one agent of a class from another, such as
// without-replacement sampling — which is why RunAgentsAuto falls back to
// the literal engine for those configurations.
//
// The trajectory is NOT byte-identical to RunAgents (the two consume
// randomness differently); it is equal in distribution, like StepCount.
// Result.Shards is 0: the run is single-stream, as the count engines are.
func RunAggregated(cfg Config, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	b := &aggregatedBody{g: g, x: cfg.X0, pmf: make([]float64, cfg.Rule.SampleSize()+1)}
	b.g0, b.g1 = cfg.Rule.Tables()
	return newDriver(&cfg, 1, 0).run(b)[0], nil
}

// aggregatedBody is RunAggregated's step: one replica at one-count x, with
// the rule's adoption tables and a scratch pmf over observed one-counts.
type aggregatedBody struct {
	g      *rng.RNG
	x      int64
	pmf    []float64
	g0, g1 []float64
}

func (b *aggregatedBody) round(d *driver, t int64) {
	n, g, x := d.cfg.N, b.g, b.x
	var s1, s0 int64
	var q float64
	if d.faults != nil {
		x = d.perturbCount(x, g)
		s1, s0 = d.faults.Stubborn(t, n)
		q = d.faults.OmitProb(t)
	}
	// Class sizes: free one-holders, free zero-holders, stubborn (s1,
	// s0), source. Clamped like stepCountFaulty so an invalid hand-rolled
	// Perturber degrades instead of panicking.
	m1 := x - int64(d.src) - s1
	m0 := (n - x) - int64(1-d.src) - s0
	if m1 < 0 {
		m1 = 0
	}
	if m0 < 0 {
		m0 = 0
	}
	var keep1 int64
	if q > 0 {
		u1 := g.Binomial(m1, 1-q)
		u0 := g.Binomial(m0, 1-q)
		keep1 = m1 - u1
		m1, m0 = u1, u0
	}
	protocol.SampleCountPMF(len(b.pmf)-1, float64(x)/float64(n), b.pmf)
	b.x = int64(d.src) + s1 + keep1 +
		splitAdopt(m1, b.pmf, b.g1, g) +
		splitAdopt(m0, b.pmf, b.g0, g)
	d.end(0, b.x, m1+m0)
}

// splitAdopt advances one opinion class of m agents: it splits the class
// over observed one-counts k by sequential conditional binomials (the
// standard exact multinomial sampler) and immediately draws the
// Binomial(cell, tbl[k]) adopters of each cell, returning the total number
// of agents of the class holding 1 afterwards.
func splitAdopt(m int64, pmf, tbl []float64, g *rng.RNG) int64 {
	var ones int64
	rem := m
	remP := 1.0
	last := len(pmf) - 1
	for k := 0; k <= last && rem > 0; k++ {
		var cell int64
		if k == last || remP <= pmf[k] {
			// Final category (or all remaining mass): take the rest.
			cell = rem
			rem = 0
		} else {
			//bitlint:probok branch guarded by remP > pmf[k] >= 0, so the ratio lies in [0,1)
			cell = g.Binomial(rem, pmf[k]/remP)
			rem -= cell
			remP -= pmf[k]
		}
		ones += g.Binomial(cell, tbl[k])
	}
	return ones
}

// CanAggregate reports whether the aggregated engine can serve the given
// agent options exactly: it cannot express per-agent identity, so
// without-replacement sampling (each agent's samples must be distinct
// *agents*) forces the literal engine. Options that request a specific
// literal body (Unpacked, Chunked) also route literal — the caller asked
// for that body's realization, not merely its distribution.
func CanAggregate(opts AgentOptions) bool {
	return !opts.WithoutReplacement && !opts.Unpacked && !opts.Chunked
}

// RunAgentsAuto routes an agent-level configuration to the fastest exact
// engine: RunAggregated when the configuration is expressible as opinion
// classes, the literal RunAgents otherwise.
func RunAgentsAuto(cfg Config, opts AgentOptions, g *rng.RNG) (Result, error) {
	if CanAggregate(opts) {
		return RunAggregated(cfg, g)
	}
	return RunAgents(cfg, opts, g)
}
