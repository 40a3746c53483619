// Package markov provides the finite Markov-chain machinery behind the
// paper's analysis: dense chains with exact hitting-time computations (used
// to validate the simulators on small populations), closed-form
// birth–death chains (the sequential setting's structure, per [14]), and
// the Doob decomposition Y = M + A with the martingale diagnostics that
// drive Theorem 6.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotStochastic is returned when a transition row does not sum to 1.
var ErrNotStochastic = errors.New("markov: transition row does not sum to 1")

// rowSumTol is the tolerance on row sums at construction.
const rowSumTol = 1e-9

// Chain is a finite Markov chain with a dense transition matrix over
// states 0..Size()-1. Construct with New; the zero value is empty.
type Chain struct {
	p [][]float64
}

// New builds a chain from a row constructor: row(i) must return the
// transition distribution out of state i, of length size. Rows are copied
// and validated.
func New(size int, row func(i int) []float64) (*Chain, error) {
	if size <= 0 {
		return nil, fmt.Errorf("markov: size %d must be positive", size)
	}
	c := &Chain{p: make([][]float64, size)}
	for i := 0; i < size; i++ {
		r := row(i)
		if len(r) != size {
			return nil, fmt.Errorf("markov: row %d has length %d, want %d", i, len(r), size)
		}
		sum := 0.0
		for j, v := range r {
			if v < -rowSumTol || math.IsNaN(v) {
				return nil, fmt.Errorf("markov: row %d entry %d is %v", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > rowSumTol {
			return nil, fmt.Errorf("%w (row %d sums to %v)", ErrNotStochastic, i, sum)
		}
		c.p[i] = append([]float64(nil), r...)
	}
	return c, nil
}

// Size returns the number of states.
func (c *Chain) Size() int { return len(c.p) }

// Prob returns the one-step transition probability from i to j.
func (c *Chain) Prob(i, j int) float64 { return c.p[i][j] }

// Step returns the distribution after one step from the given distribution
// (a fresh slice).
func (c *Chain) Step(dist []float64) []float64 {
	n := c.Size()
	out := make([]float64, n)
	for i, mass := range dist {
		//bitlint:floatexact sparse skip; only a bit-exact zero carries no mass to spread
		if mass == 0 {
			continue
		}
		row := c.p[i]
		for j, pij := range row {
			out[j] += mass * pij
		}
	}
	return out
}

// ExpectedHittingTimes returns h[i] = expected number of steps to reach
// any state in targets starting from i (h = 0 on targets). It solves the
// linear system (I - Q)h = 1 on the non-target states by dense Gaussian
// elimination with partial pivoting — O(m³) in the number m of non-target
// states, so intended for small chains (m up to a few hundred).
//
// States that cannot reach the target set yield +Inf.
func (c *Chain) ExpectedHittingTimes(targets map[int]bool) ([]float64, error) {
	n := c.Size()
	// Index the transient (non-target) states.
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !targets[i] {
			idx = append(idx, i)
		}
	}
	m := len(idx)
	h := make([]float64, n)
	if m == 0 {
		return h, nil
	}

	// Identify states that can reach the target set at all (backward BFS
	// over support edges); others get +Inf and are excluded.
	reach := c.canReach(targets)

	// Assemble A = I - Q and b = 1 over reachable transient states.
	sys := make([]int, 0, m)
	for _, i := range idx {
		if reach[i] {
			sys = append(sys, i)
		} else {
			h[i] = math.Inf(1)
		}
	}
	k := len(sys)
	if k == 0 {
		return h, nil
	}
	a := make([][]float64, k)
	b := make([]float64, k)
	for r, i := range sys {
		a[r] = make([]float64, k)
		for cc, j := range sys {
			v := -c.p[i][j]
			if i == j {
				v += 1
			}
			a[r][cc] = v
		}
		b[r] = 1
	}
	x, err := solveDense(a, b)
	if err != nil {
		return nil, err
	}
	for r, i := range sys {
		h[i] = x[r]
	}
	return h, nil
}

// canReach marks states from which the target set is reachable.
func (c *Chain) canReach(targets map[int]bool) []bool {
	n := c.Size()
	reach := make([]bool, n)
	queue := make([]int, 0, n)
	// Seed the queue in index order so the BFS visit sequence is a pure
	// function of the chain, not of map iteration order.
	for t := 0; t < n; t++ {
		if targets[t] {
			reach[t] = true
			queue = append(queue, t)
		}
	}
	// Backward edges: i -> t whenever p[i][t] > 0.
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for i := 0; i < n; i++ {
			if !reach[i] && c.p[i][t] > 0 {
				reach[i] = true
				queue = append(queue, i)
			}
		}
	}
	return reach
}

// solveDense solves a·x = b by Gaussian elimination with partial pivoting,
// destroying a and b.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		//bitlint:floatexact pivot magnitude of exactly zero is the definition of a singular column
		if best == 0 {
			return nil, fmt.Errorf("markov: singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			//bitlint:floatexact sparse skip; a bit-exact zero multiplier eliminates nothing
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for cc := col + 1; cc < n; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for cc := r + 1; cc < n; cc++ {
			v -= a[r][cc] * x[cc]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}
