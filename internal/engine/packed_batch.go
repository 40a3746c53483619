package engine

import "bitspread/internal/rng"

// RunAgentsReplicas runs one bitset agent-level replica per seed, advancing
// all of them in lockstep so each round's adoption probabilities — P₀ and
// P₁ of Eq. 4, a pure function of the round's one-count — come from the
// round driver's one AdoptCache, computed once per distinct count ever
// visited by the batch instead of once per replica-round. Replica i's
// Result is bit-identical to RunAgents(cfg, opts, rng.New(seeds[i])): the
// cache is exact, so sharing it is a pure evaluation-sharing transform,
// exactly like RunParallelReplicas at the count level. Converged replicas
// drop out of the batch; the round loop ends when none remain active or
// the cap expires.
//
// An Unpacked configuration, which the bitset engine does not serve, falls
// back to independent RunAgents calls, one per seed — same results, no
// sharing. cfg.Probe sees every replica, as in per-seed RunAgents runs.
func RunAgentsReplicas(cfg Config, opts AgentOptions, seeds []uint64) ([]Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if opts.Unpacked {
		results := make([]Result, len(seeds))
		for i, seed := range seeds {
			res, err := RunAgents(cfg, opts, rng.New(seed))
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}

	b := newBitsetBody(&cfg, opts)
	d := newDriver(&cfg, len(seeds), b.shards)
	b.states = make([]*packedState, len(seeds))
	for i, seed := range seeds {
		b.states[i] = b.newState(rng.New(seed))
	}
	return d.run(b), nil
}
