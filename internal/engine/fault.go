package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

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

// stepCountFaulty advances one count-level round under active faults: the
// source holds src, stubborn agents keep their pinned opinions, and each
// updating agent's refresh is lost with probability OmitProb(t) (it keeps
// its opinion); p0, p1 are P₀(x/n), P₁(x/n). With no stubborn agents, no
// omission and src == z it draws the same distribution as StepCount. The
// second return value is the number of agents that actually drew samples
// this round — the free, non-omitted agents — which feeds
// Result.Activations.
func stepCountFaulty(p0, p1 float64, f Perturber, t, n int64, src int, x int64, g *rng.RNG) (next, sampled int64) {
	s1, s0 := f.Stubborn(t, n)
	m1 := x - int64(src) - s1
	m0 := (n - x) - int64(1-src) - s0
	// Validated schedules keep these non-negative; clamp so an invalid
	// hand-rolled Perturber degrades instead of panicking in rng.
	if m1 < 0 {
		m1 = 0
	}
	if m0 < 0 {
		m0 = 0
	}
	var keep1 int64
	if q := f.OmitProb(t); q > 0 {
		u1 := g.Binomial(m1, 1-q)
		u0 := g.Binomial(m0, 1-q)
		keep1 = m1 - u1
		m1, m0 = u1, u0
	}
	return int64(src) + s1 + keep1 + g.Binomial(m1, p1) + g.Binomial(m0, p0), m1 + m0
}

// sequentialStepFaulty is SequentialStep under active faults: the activated
// agent may be stubborn (no change), its update may be omitted (no change),
// and the source holds src. The second return value reports whether the
// activated agent actually drew its samples — false when it was stubborn
// or its update was omitted — which feeds Result.Activations.
//
// The single uniform is partitioned as [stubborn | omitted | down | up |
// kept]: with pStub = (s1+s0)/(n-1) and omission probability q, the down
// and up masses are (m_b/(n-1))·(1-q)·(rule term), exactly the marginals
// of the pre-partition layout, so the transition law is unchanged.
func sequentialStepFaulty(r *protocol.Rule, f Perturber, t, n int64, src int, x int64, g *rng.RNG) (int64, bool) {
	p := float64(x) / float64(n)
	s1, s0 := f.Stubborn(t, n)
	m1 := float64(x - int64(src) - s1)
	m0 := float64((n - x) - int64(1-src) - s0)
	if m1 < 0 {
		m1 = 0
	}
	if m0 < 0 {
		m0 = 0
	}
	nonSource := float64(n - 1)
	q := f.OmitProb(t)
	update := 1 - q
	pStub := float64(s1+s0) / nonSource
	pOmit := (1 - pStub) * q

	u := g.Float64()
	if u < pStub+pOmit {
		return x, false
	}
	base := pStub + pOmit
	pDown := (m1 / nonSource) * (1 - r.AdoptProb(1, p)) * update
	pUp := (m0 / nonSource) * r.AdoptProb(0, p) * update
	switch {
	case u < base+pDown:
		return x - 1, true
	case u < base+pDown+pUp:
		return x + 1, true
	default:
		return x, true
	}
}
