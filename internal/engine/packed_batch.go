package engine

import (
	"fmt"

	"bitspread/internal/rng"
)

// RunAgentsReplicas runs one bitset agent-level replica per seed, advancing
// all of them in lockstep so each round's adoption coins — the T₀/T₁
// threshold pair of Eq. 4, a pure function of the round's one-count — are
// computed once per distinct count ever visited by the batch instead of
// once per replica-round. Replica i's Result is bit-identical to
// RunAgents(cfg, opts, rng.New(seeds[i])): the memoization is a pure
// evaluation-sharing transform, exactly like RunParallelReplicas at the
// count level. Converged replicas drop out of the batch; the round loop
// ends when none remain active or the cap expires.
//
// Configurations the bitset engine does not serve (Unpacked,
// without-replacement sampling) fall back to independent RunAgents calls,
// one per seed — same results, no sharing. cfg.Record must be nil — a
// shared hook cannot tell replicas apart. cfg.Probe is supported: probes
// are concurrency-safe aggregators by contract.
func RunAgentsReplicas(cfg Config, opts AgentOptions, seeds []uint64) ([]Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Record != nil {
		return nil, fmt.Errorf("engine: RunAgentsReplicas does not support Config.Record")
	}
	ell := cfg.Rule.SampleSize()
	withoutReplacement := opts.WithoutReplacement && ell <= int(cfg.N)
	if opts.Unpacked || withoutReplacement {
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

	p := newPackedParams(cfg, opts)
	results := make([]Result, len(seeds))
	states := make([]*packedState, len(seeds))
	active := make([]int, 0, len(seeds))
	for i, seed := range seeds {
		st := p.newState(rng.New(seed))
		if st.res.Converged {
			results[i] = st.res
			continue
		}
		states[i] = st
		active = append(active, i)
	}

	// Coin memo, keyed by the one-count the round's agents sample from.
	// Lookup-only access (no map iteration) keeps the batch deterministic.
	memo := make(map[int64][2]coin)
	adopt := func(x int64) [2]coin {
		c, ok := memo[x]
		if !ok {
			c = p.adoptCoins(x)
			memo[x] = c
		}
		return c
	}

	for t := int64(1); t <= p.roundCap && len(active) > 0; t++ {
		if cfg.Halt != nil && cfg.Halt() {
			for _, i := range active {
				states[i].res.Interrupted = true
				results[i] = states[i].res
			}
			return results, nil
		}
		live := active[:0]
		for _, i := range active {
			if p.round(states[i], t, adopt) {
				results[i] = states[i].res
				states[i] = nil
				continue // retire this replica
			}
			live = append(live, i)
		}
		active = live
	}
	for _, i := range active {
		results[i] = states[i].res
	}
	return results, nil
}
