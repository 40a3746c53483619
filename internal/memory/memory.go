// Package memory extends the model with bounded per-agent state, probing
// the paper's closing question (§5): does the Ω(n^{1-ε}) lower bound
// survive a constant (or logarithmic) amount of memory?
//
// The package provides a finite-state agent framework — a protocol is a
// state machine driven by the per-round sample count — and two built-ins:
//
//   - Adapter, which embeds any memory-less Rule (used to validate the
//     framework against the exact count engine);
//   - AccumulatorMinority, which shows that memory converts time into
//     samples: with constant ℓ and O(log n) bits, an agent accumulates its
//     counts over a window of w rounds while keeping its opinion frozen,
//     then applies the Minority rule to the pooled w·ℓ samples. With
//     synchronized windows and w = ⌈√(n ln n)/ℓ⌉ the execution is, window
//     by window, exactly the big-sample Minority of [15] on a static
//     configuration, so it converges in O(w·log² n) = Õ(√n) ≪ n^{1-ε}
//     rounds — the memory-less assumption of Theorem 1 is load-bearing.
//     The unsynchronized variant (arbitrary phase initialization, as
//     self-stabilization demands) is provided for empirical study; it
//     settles into a self-sustained macroscopic oscillation that visits
//     near-consensus without ever locking it exactly, because the
//     simultaneous population-wide flip that absorbs the synchronized
//     Minority is unavailable — an empirical echo of "the power of
//     synchronicity" ([15]'s title). See experiment X4.
package memory

import (
	"errors"
	"fmt"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// State is an agent's packed memory. Protocols define their own layout;
// the framework only stores and passes it back.
type State uint64

// Protocol is a bounded-memory update rule. Implementations must be
// deterministic given (state, opinion, k) and the generator stream, and
// safe for concurrent use (they carry no run state of their own).
type Protocol interface {
	// Name returns a display name.
	Name() string
	// SampleSize returns ℓ, the number of opinions sampled per round.
	SampleSize() int
	// InitState returns an agent's initial memory. Self-stabilizing
	// studies pass adversarial=true to draw an arbitrary state; otherwise
	// the protocol's designated start state is returned.
	InitState(adversarial bool, g *rng.RNG) State
	// Step consumes the round's observation (k ones among ℓ samples) and
	// returns the successor state and opinion.
	Step(st State, opinion uint8, k int, g *rng.RNG) (State, uint8)
	// StabilityWindow returns how many consecutive consensus rounds prove
	// stability for this protocol: with memory, touching n·z does not by
	// itself certify convergence (pending state can still flip agents),
	// so the engine requires the consensus to hold this long. Memory-less
	// behaviour corresponds to a small constant.
	StabilityWindow() int
}

// Adapter lifts a memory-less Rule into the framework (0 bits of state).
type Adapter struct {
	rule *protocol.Rule
}

// NewAdapter wraps a memory-less rule.
func NewAdapter(r *protocol.Rule) *Adapter { return &Adapter{rule: r} }

// Name implements Protocol.
func (a *Adapter) Name() string { return a.rule.Name() + "[0-bit]" }

// SampleSize implements Protocol.
func (a *Adapter) SampleSize() int { return a.rule.SampleSize() }

// InitState implements Protocol; memory-less agents have no state.
func (a *Adapter) InitState(bool, *rng.RNG) State { return 0 }

// StabilityWindow implements Protocol: a memory-less rule satisfying
// Proposition 3 is absorbed the moment it reaches the consensus.
func (a *Adapter) StabilityWindow() int { return 2 }

// Step implements Protocol by delegating to the wrapped rule.
func (a *Adapter) Step(st State, opinion uint8, k int, g *rng.RNG) (State, uint8) {
	if g.Bernoulli(a.rule.G(int(opinion), k)) {
		return 0, 1
	}
	return 0, 0
}

// AccumulatorMinority pools w rounds of samples and applies Minority to
// the pooled count at each window boundary. State layout: low 32 bits
// hold the accumulated ones-count, high 32 bits the phase in [0, w).
type AccumulatorMinority struct {
	ell    int
	window int
	synced bool
}

// NewAccumulatorMinority returns the accumulator with the given per-round
// sample size and window length. If synced is true every agent starts at
// phase 0 (a shared clock, the regime with the [15] reduction); otherwise
// InitState draws a uniform phase, the self-stabilizing regime.
func NewAccumulatorMinority(ell, window int, synced bool) (*AccumulatorMinority, error) {
	if ell < 1 {
		return nil, fmt.Errorf("memory: sample size %d < 1", ell)
	}
	if window < 1 || window > 1<<20 {
		return nil, fmt.Errorf("memory: window %d outside [1, 2^20]", window)
	}
	return &AccumulatorMinority{ell: ell, window: window, synced: synced}, nil
}

// Name implements Protocol.
func (p *AccumulatorMinority) Name() string {
	mode := "unsync"
	if p.synced {
		mode = "sync"
	}
	return fmt.Sprintf("AccumMinority(ℓ=%d,w=%d,%s)", p.ell, p.window, mode)
}

// SampleSize implements Protocol.
func (p *AccumulatorMinority) SampleSize() int { return p.ell }

// StateBits reports the memory footprint: phase (log₂ w) + counter
// (log₂(w·ℓ+1)) bits.
func (p *AccumulatorMinority) StateBits() int {
	return bitsFor(p.window) + bitsFor(p.window*p.ell+1)
}

// StabilityWindow implements Protocol: any in-flight window must flush
// (up to w rounds for adversarial phases) and then hold one more full
// window with every pooled count unanimous.
func (p *AccumulatorMinority) StabilityWindow() int { return 2*p.window + 2 }

func bitsFor(v int) int {
	b := 0
	for 1<<b < v {
		b++
	}
	return b
}

// InitState implements Protocol.
func (p *AccumulatorMinority) InitState(adversarial bool, g *rng.RNG) State {
	if p.synced && !adversarial {
		return 0
	}
	phase := g.Intn(p.window)
	count := g.Intn(phase*p.ell + 1)
	return pack(phase, count)
}

func pack(phase, count int) State        { return State(uint64(phase)<<32 | uint64(count)) }
func unpack(st State) (phase, count int) { return int(st >> 32), int(st & 0xffffffff) }

// Step implements Protocol: accumulate; at the window boundary decide by
// the Minority rule over the pooled samples and reset.
func (p *AccumulatorMinority) Step(st State, opinion uint8, k int, g *rng.RNG) (State, uint8) {
	phase, count := unpack(st)
	count += k
	phase++
	if phase < p.window {
		return pack(phase, count), opinion
	}
	total := p.window * p.ell
	next := opinion
	switch {
	case count == 0:
		next = 0 // unanimous zeros
	case count == total:
		next = 1 // unanimous ones
	case 2*count < total:
		next = 1 // ones are the minority: adopt
	case 2*count > total:
		next = 0
	default: // exact tie
		if g.Bernoulli(0.5) {
			next = 1
		} else {
			next = 0
		}
	}
	return pack(0, 0), next
}

// ErrNoProtocol is returned when a run is configured without a protocol.
var ErrNoProtocol = errors.New("memory: protocol must not be nil")
