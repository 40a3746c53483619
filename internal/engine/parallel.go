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
	p1 := r.AdoptProb(1, p)
	p0 := r.AdoptProb(0, p)
	m1 := x - int64(z)
	m0 := (n - x) - int64(1-z)
	return int64(z) + g.Binomial(m1, p1) + g.Binomial(m0, p0)
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
	b := &countBody{rule: cfg.Rule, xs: []int64{cfg.X0}, gs: []*rng.RNG{g}}
	return newDriver(&cfg, 1, 0).run(b)[0], nil
}

// countBody is the count-level step, for a solo run (RunParallel) or a
// lockstep batch (RunParallelReplicas): replica i holds one-count xs[i]
// and draws from gs[i].
type countBody struct {
	rule *protocol.Rule
	// cache serves P₀/P₁ to a batch; a solo run (nil cache) evaluates
	// them in place. The cache is exact, so both give the same values.
	cache *protocol.AdoptCache
	xs    []int64
	gs    []*rng.RNG
}

func (b *countBody) round(d *driver, t int64) {
	n, z := d.cfg.N, d.cfg.Z
	xs, gs := b.xs, b.gs
	for _, i := range d.active {
		x, g := xs[i], gs[i]
		if d.faults != nil {
			x = d.perturbCount(x, g)
		}
		var p0, p1 float64 // P₀(x/n), P₁(x/n) of Eq. 4
		if b.cache != nil {
			p0, p1 = b.cache.Probs(x)
		} else {
			p := float64(x) / float64(n)
			p0, p1 = b.rule.AdoptProb(0, p), b.rule.AdoptProb(1, p)
		}
		sampled := n - 1
		if d.faults != nil {
			x, sampled = stepCountFaulty(p0, p1, d.faults, t, n, d.src, x, g)
		} else {
			m1 := x - int64(z)
			m0 := (n - x) - int64(1-z)
			x = int64(z) + g.Binomial(m1, p1) + g.Binomial(m0, p0)
		}
		xs[i] = x
		d.end(i, x, sampled)
	}
}
