package engine

import "bitspread/internal/rng"

// Perturber injects mid-run faults at parallel-round boundaries. It is the
// engine-facing contract implemented by fault.Schedule (internal/fault);
// the engine package deliberately knows nothing about concrete fault kinds.
//
// All methods except PerturbCount and PerturbAgents must be pure functions
// of their arguments: a Perturber is shared read-only across replicas and
// worker goroutines, so any randomness must come from the generator the
// engine passes in. Rounds are 1-based, matching Result.Rounds.
type Perturber interface {
	// Empty reports whether the schedule perturbs nothing; engines treat an
	// empty Perturber exactly like a nil one (byte-identical runs).
	Empty() bool
	// Horizon is the last round affected by any event. Consensus reached
	// before the horizon does not end the run — self-stabilization is only
	// credited once the disturbance is over.
	Horizon() int64
	// BoundaryAt reports whether a boundary event (an opinion rewrite)
	// fires at the start of round t.
	BoundaryAt(t int64) bool
	// SourceOpinion is the opinion the source holds during round t, given
	// the true opinion z (≠ z inside source-crash windows).
	SourceOpinion(t int64, z int) int
	// OmitProb is the probability that a non-source agent's round-t update
	// is lost (the agent keeps its opinion).
	OmitProb(t int64) float64
	// Stubborn is how many non-source agents are pinned at 1 and at 0
	// during round t, for a population of n.
	Stubborn(t, n int64) (ones, zeros int64)
	// PerturbCount applies the boundary events of round t to the one-count
	// x (source included, the source holding src), drawing from g.
	PerturbCount(t, n int64, src int, x int64, g *rng.RNG) int64
	// PerturbAgents applies the boundary events of round t to the opinion
	// slice (ops[0] is the source), drawing from g.
	PerturbAgents(t int64, ops []uint8, g *rng.RNG)
}

// perturber resolves the effective fault hook: nil when faults are absent
// or the schedule is empty, so the zero-fault paths stay byte-identical to
// the pre-hook engine.
func (c *Config) perturber() Perturber {
	if c.Faults != nil && !c.Faults.Empty() {
		return c.Faults
	}
	return nil
}

// faultHorizon returns f's horizon, or 0 for a nil hook.
func faultHorizon(f Perturber) int64 {
	if f == nil {
		return 0
	}
	return f.Horizon()
}

// perturbCount applies the current round's boundary to a count-level
// state: the source takes its scheduled opinion (adjusting x, which
// includes it) and the boundary events rewrite non-source opinions.
func (d *driver) perturbCount(x int64, g *rng.RNG) int64 {
	x += int64(d.src - d.prevSrc)
	if d.boundary {
		x = d.faults.PerturbCount(d.t, d.cfg.N, d.src, x, g)
	}
	return x
}
