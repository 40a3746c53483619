package engine

import (
	"fmt"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// StepCountBatch advances R replicas of the same instance one parallel
// round each: xs[i] is replaced by the next one-count of replica i, drawn
// from gs[i]. Both Eq. 4 evaluations are routed through the shared
// AdoptCache, so the O(ℓ) pmf sum is paid once per distinct count ever
// visited by the batch instead of once per replica-round.
//
// Each replica's update is identical — in value and in stream consumption —
// to StepCount(r, c.N(), z, xs[i], gs[i]) for the rule r the cache was
// built with: the cache is exact, so batched and unbatched trajectories
// coincide realization-by-realization for the same generators. It panics
// if len(xs) != len(gs).
func StepCountBatch(c *protocol.AdoptCache, z int, xs []int64, gs []*rng.RNG) {
	if len(xs) != len(gs) {
		panic(fmt.Sprintf("engine: StepCountBatch with %d counts but %d generators", len(xs), len(gs)))
	}
	n := c.N()
	for i, x := range xs {
		p0, p1 := c.Probs(x)
		xs[i], _ = countStep(gs[i], n, x, int64(z), int64(1-z), 0, p0, p1)
	}
}

// RunParallelReplicas runs one count-level replica per seed, advancing all
// of them in lockstep so every P₀/P₁ evaluation is served by one shared
// per-rule AdoptCache. Replica i's Result is bit-identical to
// RunParallel(cfg, rng.New(seeds[i])): the batching is a pure evaluation-
// sharing transform, not a statistical approximation. Converged replicas
// drop out of the batch; the round loop ends when none remain active or
// the cap expires.
//
// cfg.Probe sees every replica: RoundDone fires once per active replica
// per round, and FaultApplied once per active replica per perturbed
// round, exactly as in per-seed RunParallel runs.
func RunParallelReplicas(cfg Config, seeds []uint64) ([]Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := newDriver(&cfg, len(seeds), 0)
	if len(d.active) == 0 {
		return d.results, nil
	}
	b := &countBody{
		cache: protocol.NewAdoptCache(cfg.Rule, cfg.N),
		xs:    make([]int64, len(seeds)),
		gs:    make([]*rng.RNG, len(seeds)),
	}
	for i, seed := range seeds {
		b.xs[i] = cfg.X0
		b.gs[i] = rng.New(seed)
	}
	return d.run(b), nil
}
