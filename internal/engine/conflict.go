package engine

import (
	"errors"
	"fmt"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// ErrNoSources is returned when a conflict run has no source agents.
var ErrNoSources = errors.New("engine: conflict run needs at least one source")

// ConflictConfig describes the majority-bit-dissemination variant of
// §1.3: multiple stubborn sources with conflicting opinions. Sources1
// agents are pinned to opinion 1 and Sources0 to opinion 0; everyone else
// runs the rule. With both counts positive no consensus is absorbing, so
// the process cannot stabilize — the impossibility shown for passive
// communication in [7], which experiment X7 demonstrates quantitatively.
type ConflictConfig struct {
	// N is the total number of agents, including all sources.
	N int64
	// Rule is the memory-less update rule of the non-source agents.
	Rule *protocol.Rule
	// Sources1 and Sources0 are the stubborn agent counts for each opinion.
	Sources1, Sources0 int64
	// X0 is the initial one-count, sources included.
	X0 int64
	// Rounds is the number of rounds to run (the process has no absorbing
	// state to stop at when both source counts are positive).
	Rounds int64
	// Probe, if non-nil, receives RoundDone after every round; the
	// sampled count is the N-Sources1-Sources0 agents that run the rule.
	Probe Probe
}

func (c *ConflictConfig) validate() error {
	if c.Rule == nil {
		return ErrNoRule
	}
	if c.Sources1 < 0 || c.Sources0 < 0 || c.Sources1+c.Sources0 == 0 {
		return fmt.Errorf("%w (s1=%d, s0=%d)", ErrNoSources, c.Sources1, c.Sources0)
	}
	if c.N < c.Sources1+c.Sources0+1 {
		return fmt.Errorf("%w (N=%d with %d sources)", ErrPopulation, c.N, c.Sources1+c.Sources0)
	}
	if c.X0 < c.Sources1 || c.X0 > c.N-c.Sources0 {
		return fmt.Errorf("%w (X0=%d, valid range [%d,%d])",
			ErrInitial, c.X0, c.Sources1, c.N-c.Sources0)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("engine: conflict run needs Rounds >= 1, got %d", c.Rounds)
	}
	return nil
}

// StepConflict advances the count chain one round with s1 stubborn ones
// and s0 stubborn zeros: X' = s1 + Bin(x-s1, P1(x/n)) + Bin(n-x-s0, P0(x/n)).
func StepConflict(r *protocol.Rule, n, s1, s0 int64, x int64, g *rng.RNG) int64 {
	p := float64(x) / float64(n)
	next, _ := countStep(g, n, x, s1, s0, 0, r.AdoptProb(0, p), r.AdoptProb(1, p))
	return next
}

// ConflictResult reports a conflict run.
type ConflictResult struct {
	// Rounds is the number of rounds executed.
	Rounds int64
	// FinalCount is the one-count at the end.
	FinalCount int64
	// MeanFraction is the time-average of X_t/n over the run. For the
	// Voter with zealots its stationary value is s1/(s1+s0) (the classic
	// zealot voter model), which X7 checks.
	MeanFraction float64
	// ConsensusVisits counts the rounds spent in either full consensus —
	// necessarily 0 whenever both source counts are positive.
	ConsensusVisits int64
}

// RunConflict simulates the conflicting-sources process for the
// configured number of rounds.
func RunConflict(cfg ConflictConfig, g *rng.RNG) (ConflictResult, error) {
	if err := cfg.validate(); err != nil {
		return ConflictResult{}, err
	}
	x := cfg.X0
	var res ConflictResult
	var fracSum float64
	for t := int64(1); t <= cfg.Rounds; t++ {
		// StepConflict's draw, keeping the sampled count for the probe.
		p := float64(x) / float64(cfg.N)
		var sampled int64
		x, sampled = countStep(g, cfg.N, x, cfg.Sources1, cfg.Sources0, 0,
			cfg.Rule.AdoptProb(0, p), cfg.Rule.AdoptProb(1, p))
		fracSum += float64(x) / float64(cfg.N)
		if x == 0 || x == cfg.N {
			res.ConsensusVisits++
		}
		if cfg.Probe != nil {
			cfg.Probe.RoundDone(t, x, sampled)
		}
	}
	res.Rounds = cfg.Rounds
	res.FinalCount = x
	res.MeanFraction = fracSum / float64(cfg.Rounds)
	return res, nil
}
