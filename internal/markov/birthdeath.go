package markov

import (
	"fmt"
	"math"
)

// BirthDeath is a birth–death chain on states 0..n: from state i the chain
// moves to i+1 with probability Up[i], to i-1 with probability Down[i], and
// stays otherwise. This is exactly the structure of the sequential setting
// for every memory-less protocol (only one agent updates per activation),
// the observation underlying all the lower bounds of [14].
type BirthDeath struct {
	up   []float64
	down []float64
}

// NewBirthDeath builds a chain from the per-state up/down probabilities,
// which must have equal length n+1, satisfy up[i]+down[i] <= 1, and have
// up[n] = 0 and down[0] = 0. Slices are copied.
func NewBirthDeath(up, down []float64) (*BirthDeath, error) {
	if len(up) != len(down) || len(up) == 0 {
		return nil, fmt.Errorf("markov: up/down lengths %d, %d invalid", len(up), len(down))
	}
	n := len(up) - 1
	//bitlint:floatexact boundary rates must be written as literal 0; any other value is a caller bug
	if up[n] != 0 {
		return nil, fmt.Errorf("markov: up[%d] = %v, want 0 at the top state", n, up[n])
	}
	//bitlint:floatexact boundary rates must be written as literal 0; any other value is a caller bug
	if down[0] != 0 {
		return nil, fmt.Errorf("markov: down[0] = %v, want 0 at the bottom state", down[0])
	}
	for i := range up {
		if up[i] < 0 || down[i] < 0 || up[i]+down[i] > 1+rowSumTol {
			return nil, fmt.Errorf("markov: invalid rates at state %d (up=%v, down=%v)", i, up[i], down[i])
		}
	}
	return &BirthDeath{
		up:   append([]float64(nil), up...),
		down: append([]float64(nil), down...),
	}, nil
}

// Size returns the number of states, n+1.
func (bd *BirthDeath) Size() int { return len(bd.up) }

// ExpectedTimeUp returns the expected number of steps to first reach state
// b starting from state a <= b, by the classical one-step recursion for
// birth–death chains:
//
//	E[i→i+1] = (1 + down[i]·E[i-1→i]) / up[i],
//
// summed over i = a..b-1. The result is +Inf if some up[i] = 0 on the way
// (with i > 0 reachable downward mass below it notwithstanding — the chain
// then cannot pass level i upward).
func (bd *BirthDeath) ExpectedTimeUp(a, b int) float64 {
	bd.mustValidRange(a, b)
	if a == b {
		return 0
	}
	// e[i] = expected steps from i to i+1.
	e := make([]float64, b)
	for i := 0; i < b; i++ {
		//bitlint:floatexact an exactly-zero up rate makes the upward passage impossible, not merely slow
		if bd.up[i] == 0 {
			e[i] = math.Inf(1)
			continue
		}
		carried := 0.0
		if i > 0 && bd.down[i] > 0 {
			carried = bd.down[i] * e[i-1] // guarded so 0·Inf never arises
		}
		e[i] = (1 + carried) / bd.up[i]
	}
	total := 0.0
	for i := a; i < b; i++ {
		total += e[i]
	}
	return total
}

// ExpectedTimeDown returns the expected number of steps to first reach
// state b starting from a >= b (the mirror of ExpectedTimeUp).
func (bd *BirthDeath) ExpectedTimeDown(a, b int) float64 {
	bd.mustValidRange(b, a)
	if a == b {
		return 0
	}
	n := bd.Size() - 1
	// d[i] = expected steps from i to i-1, computed from the top down.
	d := make([]float64, n+1)
	for i := n; i > b; i-- {
		//bitlint:floatexact an exactly-zero down rate makes the downward passage impossible, not merely slow
		if bd.down[i] == 0 {
			d[i] = math.Inf(1)
			continue
		}
		carried := 0.0
		if i < n && bd.up[i] > 0 {
			carried = bd.up[i] * d[i+1] // guarded so 0·Inf never arises
		}
		d[i] = (1 + carried) / bd.down[i]
	}
	total := 0.0
	for i := a; i > b; i-- {
		total += d[i]
	}
	return total
}

// Dense converts the birth–death chain to a dense Chain, for cross-checks
// against the generic solvers.
func (bd *BirthDeath) Dense() (*Chain, error) {
	n := bd.Size()
	return New(n, func(i int) []float64 {
		row := make([]float64, n)
		if i+1 < n {
			row[i+1] = bd.up[i]
		}
		if i > 0 {
			row[i-1] = bd.down[i]
		}
		row[i] = 1 - bd.up[i] - bd.down[i]
		return row
	})
}

func (bd *BirthDeath) mustValidRange(lo, hi int) {
	if lo < 0 || hi >= bd.Size() || lo > hi {
		panic(fmt.Sprintf("markov: invalid state range [%d, %d] for size %d", lo, hi, bd.Size()))
	}
}
