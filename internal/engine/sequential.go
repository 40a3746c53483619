package engine

import (
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// SequentialStep returns the next one-count after a single sequential
// activation from count x: one non-source agent chosen uniformly at random
// resamples and updates. The count moves by at most one, which is why the
// sequential process is a birth–death chain for every protocol — the
// structural fact behind the Ω(n) lower bound of [14].
func SequentialStep(r *protocol.Rule, n int64, z int, x int64, g *rng.RNG) int64 {
	p := float64(x) / float64(n)
	m1 := float64(x - int64(z))       // non-source agents holding 1
	m0 := float64(n - x - int64(1-z)) // non-source agents holding 0
	nonSource := float64(n - 1)

	u := g.Float64()
	// The activated agent holds 1 with probability m1/(n-1); it then drops
	// to 0 with probability 1-P₁(p). Otherwise it holds 0 and rises with
	// probability P₀(p).
	pDown := (m1 / nonSource) * (1 - r.AdoptProb(1, p))
	pUp := (m0 / nonSource) * r.AdoptProb(0, p)
	switch {
	case u < pDown:
		return x - 1
	case u < pDown+pUp:
		return x + 1
	default:
		return x
	}
}

// RunSequential simulates the sequential setting. The round cap of cfg is
// interpreted in parallel rounds: one parallel round is n activations, so
// the engine performs up to maxRounds·n activations. Result.Rounds reports
// parallel rounds (rounded up) for apples-to-apples comparison with the
// parallel engine, per the paper's convention. Fault boundaries fire every
// n activations — the sequential image of a parallel round boundary.
func RunSequential(cfg Config, g *rng.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	return newDriver(&cfg, 1, 0).run(&sequentialBody{g: g, x: cfg.X0})[0], nil
}

// sequentialBody is RunSequential's step: one round is n activations,
// cut short when one of them reaches consensus, so the round closes at the
// terminal count. The all-wrong trap is checked after every activation,
// not only at the round's end.
type sequentialBody struct {
	g *rng.RNG
	x int64
}

func (b *sequentialBody) round(d *driver, t int64) {
	cfg := d.cfg
	x := b.x
	if d.faults != nil {
		x = d.perturbCount(x, b.g)
	}
	var sampled int64
	for a := int64(0); a < cfg.N; a++ {
		if d.faults != nil {
			var did bool
			x, did = sequentialStepFaulty(cfg.Rule, d.faults, t, cfg.N, d.src, x, b.g)
			if did {
				sampled++
			}
		} else {
			x = SequentialStep(cfg.Rule, cfg.N, cfg.Z, x, b.g)
			sampled++
		}
		if x == d.trap {
			d.results[0].HitWrongConsensus = true
		}
		if d.converged(x) {
			break
		}
	}
	b.x = x
	d.end(0, x, sampled)
}
