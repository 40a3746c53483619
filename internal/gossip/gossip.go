// Package gossip implements classical active-communication rumor
// spreading (push, pull, push&pull), the baseline the bit-dissemination
// model deliberately forbids: the paper's agents only observe sampled
// opinions passively and cannot tell who is informed. With active
// communication a single informed source reaches everyone in Θ(log n)
// rounds (Karp et al. / Pittel shape); the passive, memory-less,
// constant-ℓ setting needs almost-linear time (Theorem 1). Experiment X8
// measures that price of passivity.
package gossip

import (
	"errors"
	"fmt"

	"bitspread/internal/rng"
)

// Mode selects the exchange direction of a round.
type Mode int

const (
	// Push: every informed agent calls a uniform agent and informs it.
	Push Mode = iota + 1
	// Pull: every uninformed agent calls a uniform agent and becomes
	// informed if the callee is.
	Pull
	// PushPull: both exchanges happen each round.
	PushPull
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Push:
		return "push"
	case Pull:
		return "pull"
	case PushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrConfig is returned for invalid spreading configurations.
var ErrConfig = errors.New("gossip: invalid configuration")

// Config describes a rumor-spreading run.
type Config struct {
	// N is the population size.
	N int64
	// Informed0 is the number of initially informed agents (>= 1).
	Informed0 int64
	// Mode selects push, pull, or push&pull.
	Mode Mode
	// MaxRounds caps the run (0: 64·log₂n + 64, far above the Θ(log n)
	// completion time).
	MaxRounds int64
}

// Result reports a spreading run.
type Result struct {
	// Completed is true when every agent was informed.
	Completed bool
	// Rounds is the completion round (or rounds executed).
	Rounds int64
	// Informed is the final informed count.
	Informed int64
}

// Spread simulates rumor spreading. Push targets are resolved agent-level
// (collisions matter: several pushes can hit the same agent), pull counts
// are exact binomials; cost is O(I_t) for push and O(1) for pull per
// round, so full runs cost O(n) overall.
func Spread(cfg Config, g *rng.RNG) (Result, error) {
	switch {
	case cfg.N < 1:
		return Result{}, fmt.Errorf("%w: N=%d", ErrConfig, cfg.N)
	case cfg.Informed0 < 1 || cfg.Informed0 > cfg.N:
		return Result{}, fmt.Errorf("%w: Informed0=%d with N=%d", ErrConfig, cfg.Informed0, cfg.N)
	case cfg.Mode != Push && cfg.Mode != Pull && cfg.Mode != PushPull:
		return Result{}, fmt.Errorf("%w: mode %d", ErrConfig, int(cfg.Mode))
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64*log2Ceil(cfg.N) + 64
	}

	// informed[i] for i < n; we track the informed set implicitly by
	// permuting identities: agents 0..informed-1 are informed. Uniform
	// calling only depends on counts, so the relabeling is exact.
	informed := cfg.Informed0
	res := Result{Informed: informed}
	if informed == cfg.N {
		res.Completed = true
		return res, nil
	}
	for t := int64(1); t <= maxRounds; t++ {
		newInformed := informed
		if cfg.Mode == Push || cfg.Mode == PushPull {
			// Each informed agent pushes to a uniform agent; the number of
			// *distinct susceptible* targets follows the occupancy
			// distribution, which we realize exactly by sampling targets.
			hits := make(map[int64]bool, informed)
			for i := int64(0); i < informed; i++ {
				target := int64(g.Intn(int(cfg.N)))
				if target >= informed { // susceptible
					hits[target] = true
				}
			}
			newInformed += int64(len(hits))
		}
		if cfg.Mode == Pull || cfg.Mode == PushPull {
			// Each still-susceptible agent pulls from a uniform agent and
			// is informed iff it hits the informed set of *this round's
			// start*; exact count is binomial.
			susceptible := cfg.N - newInformed
			p := float64(informed) / float64(cfg.N)
			newInformed += g.Binomial(susceptible, p)
		}
		informed = newInformed
		res.Rounds = t
		res.Informed = informed
		if informed == cfg.N {
			res.Completed = true
			return res, nil
		}
	}
	return res, nil
}

// log2Ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2Ceil(n int64) int64 {
	var b int64
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		return 1
	}
	return b
}
