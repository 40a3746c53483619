package markov

import "math"

// Doob computes the Doob decomposition used in the proof of Theorem 6.
// For a trajectory {X_t} and a drift oracle giving E[X_{t+1} | X_t = x],
// the shifted process Y_t = X_t - t splits uniquely as Y_t = M_t + A_t
// with M a martingale and A predictable:
//
//	A_t = Σ_{k=1}^{t} (E[Y_k | Y_{k-1}] - Y_{k-1}),   A_0 = 0,
//	M_t = Y_0 + Σ_{k=1}^{t} (Y_k - E[Y_k | Y_{k-1}]), M_0 = Y_0.
//
// The decomposition makes the proof's key quantities observable: Claim 7's
// invariant M_t >= Y_t, the martingale corridor of Claim 8, and the
// bounded-increment condition (iii).
type Doob struct {
	// Y[t] = X[t] - t·shift (shift is 1 in the Theorem 6 proof).
	Y []float64
	// M is the martingale part, M[0] = Y[0].
	M []float64
	// A is the predictable part, A[0] = 0; Y = M + A pointwise.
	A []float64
}

// Decompose computes the Doob decomposition of the trajectory xs under the
// drift oracle expNext(x) = E[X_{t+1} | X_t = x], with the linear time
// shift Y_t = X_t - shift·t (Theorem 6 uses shift = 1; pass 0 to decompose
// X itself).
func Decompose(xs []int64, shift float64, expNext func(x int64) float64) *Doob {
	t := len(xs)
	d := &Doob{
		Y: make([]float64, t),
		M: make([]float64, t),
		A: make([]float64, t),
	}
	if t == 0 {
		return d
	}
	d.Y[0] = float64(xs[0])
	d.M[0] = d.Y[0]
	d.A[0] = 0
	for k := 1; k < t; k++ {
		d.Y[k] = float64(xs[k]) - shift*float64(k)
		// E[Y_k | Y_{k-1}] = E[X_k | X_{k-1}] - shift·k.
		ey := expNext(xs[k-1]) - shift*float64(k)
		d.A[k] = d.A[k-1] + (ey - d.Y[k-1])
		d.M[k] = d.M[k-1] + (d.Y[k] - ey)
	}
	return d
}

// MaxMartingaleStep returns the largest |M_{t+1} - M_t| over the
// trajectory — the empirical counterpart of assumption (iii) of Theorem 6.
func (d *Doob) MaxMartingaleStep() float64 {
	maxStep := 0.0
	for k := 1; k < len(d.M); k++ {
		if s := math.Abs(d.M[k] - d.M[k-1]); s > maxStep {
			maxStep = s
		}
	}
	return maxStep
}

// DominanceHolds reports whether M_t >= Y_t - tol for every t — the
// invariant established by Claims 7 and 9 (Y can never jump over M while
// it stays in the working interval).
func (d *Doob) DominanceHolds(tol float64) bool {
	for k := range d.M {
		if d.M[k] < d.Y[k]-tol {
			return false
		}
	}
	return true
}
