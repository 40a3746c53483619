package memory

import (
	"fmt"

	"bitspread/internal/engine"
	"bitspread/internal/rng"
)

// Config describes a bounded-memory bit-dissemination run. It mirrors the
// memory-less engine.Config, with the extra choice of how agent memory is
// initialized.
type Config struct {
	// N is the population size including the source.
	N int64
	// Protocol is the bounded-memory rule run by every non-source agent.
	Protocol Protocol
	// Z is the correct opinion, held by the source at all times.
	Z int
	// X0 is the initial number of agents (source included) with opinion 1.
	X0 int64
	// AdversarialMemory initializes agent states arbitrarily (the
	// self-stabilizing regime); otherwise the protocol's designated start
	// state is used.
	AdversarialMemory bool
	// MaxRounds caps the run (0: engine.DefaultMaxRounds, as in the
	// memory-less engine).
	MaxRounds int64
	// Probe, if non-nil, receives RoundDone after every round, with the
	// N-1 non-source agents as the sampled count.
	Probe engine.Probe
}

// Result reports a bounded-memory run. Unlike the memory-less engines,
// reaching the correct consensus does not by itself certify stability
// (memory can carry pending flips), so the engine requires the consensus
// to hold for a full StateBits-independent confirmation window before
// declaring convergence.
type Result struct {
	// Converged is true when the correct consensus held for the whole
	// confirmation window.
	Converged bool
	// Rounds is the first round of the confirmed consensus stretch, or
	// the executed rounds when not converged.
	Rounds int64
	// FinalCount is the one-count when the run stopped.
	FinalCount int64
}

// confirmationWindow returns how many consecutive consensus rounds the
// engine demands before declaring convergence, as reported by the
// protocol (never less than 2).
func confirmationWindow(p Protocol) int64 {
	w := int64(p.StabilityWindow())
	if w < 2 {
		w = 2
	}
	return w
}

// Run simulates the bounded-memory process agent by agent. Cost is
// O(n·ℓ) per round.
func Run(cfg Config, g *rng.RNG) (Result, error) {
	if cfg.N < 2 {
		return Result{}, fmt.Errorf("memory: population %d too small", cfg.N)
	}
	if cfg.Protocol == nil {
		return Result{}, ErrNoProtocol
	}
	if cfg.Z != 0 && cfg.Z != 1 {
		return Result{}, fmt.Errorf("memory: correct opinion %d", cfg.Z)
	}
	lo, hi := int64(cfg.Z), cfg.N-1+int64(cfg.Z)
	if cfg.X0 < lo || cfg.X0 > hi {
		return Result{}, fmt.Errorf("memory: X0=%d outside [%d,%d]", cfg.X0, lo, hi)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = engine.DefaultMaxRounds(cfg.N)
	}

	n := int(cfg.N)
	ell := cfg.Protocol.SampleSize()
	target := int64(cfg.Z) * cfg.N
	confirm := confirmationWindow(cfg.Protocol)

	opinions := make([]uint8, n)
	nextOps := make([]uint8, n)
	states := make([]State, n)
	opinions[0] = uint8(cfg.Z)
	perm := g.Perm(n - 1)
	for i := 0; i < int(cfg.X0)-cfg.Z; i++ {
		opinions[perm[i]+1] = 1
	}
	for i := 1; i < n; i++ {
		states[i] = cfg.Protocol.InitState(cfg.AdversarialMemory, g)
	}

	res := Result{FinalCount: cfg.X0}
	var stableSince int64 = -1
	for t := int64(1); t <= maxRounds; t++ {
		nextOps[0] = uint8(cfg.Z)
		count := int64(nextOps[0])
		for i := 1; i < n; i++ {
			k := 0
			for s := 0; s < ell; s++ {
				k += int(opinions[g.Intn(n)])
			}
			st, op := cfg.Protocol.Step(states[i], opinions[i], k, g)
			states[i] = st
			nextOps[i] = op
			count += int64(op)
		}
		opinions, nextOps = nextOps, opinions
		res.Rounds = t
		res.FinalCount = count
		if cfg.Probe != nil {
			cfg.Probe.RoundDone(t, count, cfg.N-1)
		}
		if count == target {
			if stableSince < 0 {
				stableSince = t
			}
			if t-stableSince+1 >= confirm {
				res.Converged = true
				res.Rounds = stableSince
				return res, nil
			}
		} else {
			stableSince = -1
		}
	}
	return res, nil
}
