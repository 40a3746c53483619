// Package engine simulates the bit-dissemination process of Section 1.1 in
// both activation models:
//
//   - the parallel setting (all non-source agents update simultaneously each
//     round), via an exact O(1)-per-round count-level engine and a literal
//     O(nℓ)-per-round agent-level engine used to cross-validate it;
//   - the sequential setting (one uniformly random non-source agent per
//     activation), the birth–death regime of [14].
//
// The count engine exploits the paper's observation that the configuration
// is fully described by (z, X_t): conditioned on X_t = x, every non-source
// agent updates independently with the probabilities of Eq. 4, so
//
//	X_{t+1} = z + Binomial(m₁, P₁(x/n)) + Binomial(m₀, P₀(x/n)),
//
// where m₁, m₀ count the non-source agents currently holding 1 and 0. This
// is exact in distribution and makes populations of 10⁸ agents cheap.
package engine

import (
	"errors"
	"fmt"
	"math"

	"bitspread/internal/protocol"
)

// Sentinel configuration errors.
var (
	// ErrPopulation is returned when the population size is less than 2
	// (one source plus at least one non-source agent).
	ErrPopulation = errors.New("engine: population must be at least 2")
	// ErrOpinion is returned when the correct opinion is not 0 or 1.
	ErrOpinion = errors.New("engine: correct opinion must be 0 or 1")
	// ErrInitial is returned when the initial one-count is inconsistent
	// with the source's opinion (the source always holds z, so X₀ must lie
	// in [z, n-1+z]).
	ErrInitial = errors.New("engine: initial count inconsistent with source opinion")
	// ErrNoRule is returned when no update rule is configured.
	ErrNoRule = errors.New("engine: rule must not be nil")
)

// Config describes one bit-dissemination instance.
type Config struct {
	// N is the total number of agents, including the source. Must be >= 2.
	N int64
	// Rule is the memory-less update rule every non-source agent runs.
	Rule *protocol.Rule
	// Z is the correct opinion, held by the source at all times.
	Z int
	// X0 is the initial number of agents (source included) with opinion 1.
	// The adversary chooses it; see the Init helpers.
	X0 int64
	// MaxRounds caps the simulation length in parallel rounds. Zero means
	// DefaultMaxRounds(N).
	MaxRounds int64
	// Probe, if non-nil, receives the run's per-round events (one-count,
	// activation counts, fault applications, shard load); see Probe.
	// Probes never affect the run: Results are byte-identical with and
	// without one.
	Probe Probe
	// Faults, if non-nil and non-empty, injects the schedule's mid-run
	// perturbations at round boundaries (see internal/fault). A nil or
	// empty Perturber leaves every engine byte-identical to the unhooked
	// code path: same stream consumption, same Result.
	Faults Perturber
	// Halt, if non-nil, is polled at round boundaries; once it returns
	// true the run stops and reports the partial Result with Interrupted
	// set. It must be safe for concurrent use (replicas share it) and
	// must not consume randomness.
	Halt func() bool
}

// DefaultMaxRounds returns the default simulation cap, 64·n·ln(n) + 1024
// parallel rounds: comfortably above the Voter's O(n log n) convergence
// (Theorem 2), so a valid protocol that can converge will.
func DefaultMaxRounds(n int64) int64 {
	if n < 2 {
		return 1024
	}
	return int64(64*float64(n)*math.Log(float64(n))) + 1024
}

// Validate reports the first configuration error without running anything;
// the sim layer uses it to fail a whole task fast instead of once per
// replica.
func (c *Config) Validate() error { return c.validate() }

// validate normalizes cfg and reports the first configuration error.
func (c *Config) validate() error {
	if c.N < 2 {
		return fmt.Errorf("%w (N=%d)", ErrPopulation, c.N)
	}
	if c.Rule == nil {
		return ErrNoRule
	}
	if c.Z != 0 && c.Z != 1 {
		return fmt.Errorf("%w (z=%d)", ErrOpinion, c.Z)
	}
	lo, hi := int64(c.Z), c.N-1+int64(c.Z)
	if c.X0 < lo || c.X0 > hi {
		return fmt.Errorf("%w (X0=%d, valid range [%d,%d])", ErrInitial, c.X0, lo, hi)
	}
	return nil
}

// RoundCap resolves the round cap: MaxRounds, or DefaultMaxRounds(N).
func (c *Config) RoundCap() int64 {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return DefaultMaxRounds(c.N)
}

// Result reports the outcome of a run.
type Result struct {
	// Converged is true when the correct consensus X = n·z was reached and
	// the consensus is absorbing under the rule (Proposition 3 holds), so
	// the hitting time equals the paper's convergence time τ.
	Converged bool
	// Rounds is the first parallel round at which the correct consensus
	// held (0 if already at X₀), or the number of rounds executed when the
	// run did not converge.
	Rounds int64
	// Activations is the number of individual agent updates actually
	// performed: activations in which the agent drew its ℓ samples and
	// redrew its opinion. Stubborn-pinned agents and agents whose update
	// a fault schedule omitted perform no sampling and are not counted.
	// Fault-free, every parallel round contributes n-1 and every
	// sequential activation contributes 1, so the historical
	// Rounds·(n-1) (resp. activation-count) reading still holds there.
	Activations int64
	// FinalCount is the one-count when the run stopped.
	FinalCount int64
	// HitWrongConsensus is true if the run ever reached the all-wrong
	// configuration (every non-source agent holding 1-z); diagnostic for
	// rules like Majority that trap there.
	HitWrongConsensus bool
	// Interrupted is true when the run was stopped by Config.Halt before
	// reaching consensus or its round cap; the other fields then describe
	// the partial trajectory, not a completed measurement.
	Interrupted bool
	// Shards records how many independent random streams drove the run:
	// the resolved AgentOptions.Shards for the bitset agent engine, 1 for
	// the serial literal body, 0 for the single-stream count-level and
	// sequential engines. Together with the seed it
	// identifies the exact realization, since sharded runs are
	// bit-reproducible only for the same (seed, shards) pair.
	Shards int
}

// consensusTarget returns the absorbing correct-consensus count n·z.
func consensusTarget(n int64, z int) int64 {
	if z == 1 {
		return n
	}
	return 0
}

// wrongTrap returns the all-wrong count: every non-source agent holds 1-z.
func wrongTrap(n int64, z int) int64 {
	if z == 1 {
		return 1 // only the source holds 1
	}
	return n - 1
}
