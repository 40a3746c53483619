package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// StepCount advances the exact count-level chain one parallel round:
// given x agents with opinion 1 (source included), it returns the next
// round's one-count, distributed exactly as in the agent-level model.
//
// Derivation: each non-source agent's ℓ samples are i.i.d. Bernoulli(x/n)
// (sampling is uniform with replacement over all n agents), so conditioned
// on X_t = x each of the m₁ one-holders independently keeps/adopts 1 with
// probability P₁(x/n) and each of the m₀ zero-holders adopts 1 with
// probability P₀(x/n) (Eq. 4). The source contributes z.
func StepCount(r *protocol.Rule, n int64, z int, x int64, g *rng.RNG) int64 {
	p := float64(x) / float64(n)
	next, _ := countStep(g, n, x, int64(z), int64(1-z), 0, r.AdoptProb(0, p), r.AdoptProb(1, p))
	return next
}

// countStep draws one round of the count chain; every count-level writer
// calls it. Of the x agents holding 1, pin1 cannot change (the source and
// the agents stubborn at 1), and likewise pin0 of the n-x holding 0.
// Each free agent's update is lost with probability q, keeping its
// opinion; the others adopt 1 with probability p1 if they hold 1 and p0 if
// they hold 0. The draws come in a fixed order, which is part of every
// count-engine realization: the omission thinning of the ones, then of the
// zeros, then Binomial(m₁, p1), then Binomial(m₀, p0). It returns the next
// one-count and the number of agents that drew samples (the free agents
// whose update was not lost), which feeds Result.Activations.
func countStep(g *rng.RNG, n, x, pin1, pin0 int64, q, p0, p1 float64) (next, sampled int64) {
	// Valid inputs keep these non-negative; clamp so an invalid hand-rolled
	// Perturber degrades instead of panicking in rng.
	m1 := max(x-pin1, 0)
	m0 := max(n-x-pin0, 0)
	var keep1 int64
	if q > 0 {
		u1 := g.Binomial(m1, 1-q)
		u0 := g.Binomial(m0, 1-q)
		keep1 = m1 - u1
		m1, m0 = u1, u0
	}
	return pin1 + keep1 + g.Binomial(m1, p1) + g.Binomial(m0, p0), m1 + m0
}

// RunParallel simulates the parallel-setting process with the exact
// count-level engine until the correct consensus is hit or the round cap
// expires. The generator g must not be shared across concurrent runs.
// With cfg.Faults set, scheduled perturbations are applied at round
// boundaries and consensus only counts once the schedule's horizon has
// passed; with cfg.Halt set, the run stops early when it fires.
func RunParallel(cfg Config, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	b := &countBody{xs: []int64{cfg.X0}, gs: []*rng.RNG{g}}
	return newDriver(&cfg, 1, 0).run(b)[0], nil
}

// countBody is the count-level step, for a solo run (RunParallel) or a
// lockstep batch (RunParallelReplicas): replica i holds one-count xs[i]
// and draws from gs[i].
type countBody struct {
	xs []int64
	gs []*rng.RNG
}

func (b *countBody) round(d *driver) {
	n := d.cfg.N
	xs, gs := b.xs, b.gs
	pin1, pin0 := d.pinned()
	for _, i := range d.active {
		x, g := xs[i], gs[i]
		if d.faults != nil {
			x = d.perturbCount(x, g)
		}
		p0, p1, ok := d.cache.Cached(x)
		if !ok {
			p0, p1 = d.probs(x)
		}
		x, sampled := countStep(g, n, x, pin1, pin0, d.omit, p0, p1)
		xs[i] = x
		d.end(i, x, sampled)
	}
}
