package graph

import (
	"fmt"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// Config describes a topology-restricted bit-dissemination run. Agent 0
// is the source.
type Config struct {
	// Topology is the sampling structure; its size is the population.
	Topology Topology
	// Rule is the memory-less update rule (samples are drawn from
	// neighbors instead of the whole population).
	Rule *protocol.Rule
	// Z is the correct opinion.
	Z int
	// InitialOnes is the number of non-source agents starting with
	// opinion 1, placed uniformly at random.
	InitialOnes int
	// MaxRounds caps the run (0: engine.DefaultMaxRounds — note sparse
	// topologies like the ring can genuinely need more; set an explicit
	// cap for those).
	MaxRounds int64
	// Probe, if non-nil, receives RoundDone after every round, with the
	// n-1 non-source agents as the sampled count.
	Probe engine.Probe
}

// Result reports a topology run.
type Result struct {
	// Converged is true when every agent held z (absorbing under Prop 3
	// rules, as on the complete graph).
	Converged bool
	// Rounds is the convergence round or the executed rounds.
	Rounds int64
	// FinalOnes is the final one-count, source included.
	FinalOnes int64
}

// Run simulates the parallel dynamics on the topology: every round each
// non-source agent draws ℓ uniform neighbors (with replacement), counts
// the ones, and applies the rule. Cost is O(n·ℓ) per round.
func Run(cfg Config, g *rng.RNG) (Result, error) {
	if cfg.Topology == nil {
		return Result{}, fmt.Errorf("graph: topology must not be nil")
	}
	if cfg.Rule == nil {
		return Result{}, fmt.Errorf("graph: rule must not be nil")
	}
	if cfg.Z != 0 && cfg.Z != 1 {
		return Result{}, fmt.Errorf("graph: correct opinion %d", cfg.Z)
	}
	n := cfg.Topology.Size()
	if cfg.InitialOnes < 0 || cfg.InitialOnes > n-1 {
		return Result{}, fmt.Errorf("graph: InitialOnes %d outside [0, %d]", cfg.InitialOnes, n-1)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = engine.DefaultMaxRounds(int64(n))
	}
	ell := cfg.Rule.SampleSize()
	absorbing := cfg.Rule.CheckProp3() == nil

	cur := make([]uint8, n)
	next := make([]uint8, n)
	cur[0] = uint8(cfg.Z)
	perm := g.Perm(n - 1)
	for i := 0; i < cfg.InitialOnes; i++ {
		cur[perm[i]+1] = 1
	}
	ones := int64(cfg.InitialOnes + cfg.Z)
	target := int64(cfg.Z) * int64(n)

	res := Result{FinalOnes: ones}
	if ones == target && absorbing {
		res.Converged = true
		return res, nil
	}
	for t := int64(1); t <= maxRounds; t++ {
		next[0] = uint8(cfg.Z)
		count := int64(next[0])
		for i := 1; i < n; i++ {
			k := 0
			for s := 0; s < ell; s++ {
				k += int(cur[cfg.Topology.SampleNeighbor(i, g)])
			}
			if g.Bernoulli(cfg.Rule.G(int(cur[i]), k)) {
				next[i] = 1
				count++
			} else {
				next[i] = 0
			}
		}
		cur, next = next, cur
		ones = count
		res.Rounds = t
		res.FinalOnes = ones
		if cfg.Probe != nil {
			cfg.Probe.RoundDone(t, ones, int64(n-1))
		}
		if ones == target && absorbing {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}
