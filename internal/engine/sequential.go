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
	next, _ := sequentialStep(g, n, x, int64(z), int64(1-z), 0, r.AdoptProb(0, p), r.AdoptProb(1, p))
	return next
}

// sequentialStep draws one sequential activation; both sequential writers
// call it. pin1 and pin0 count the agents holding 1 and 0 that cannot
// change (the source and the stubborn agents): an activated stubborn agent
// does nothing, and a free one loses its update with probability q; p0 and
// p1 are P₀(x/n) and P₁(x/n) of Eq. 4. The second return value reports
// whether the activated agent drew its samples, which feeds
// Result.Activations.
//
// The single uniform is partitioned as [stubborn | omitted | down | up |
// kept]: with pStub the stubborn share of the n-1 non-source agents, the
// down and up masses are (m_b/(n-1))·(1-q)·(rule term), so the transition
// law is that of the free agents alone. With nothing pinned beyond the
// source and q = 0 the first two cells are empty and every bound is the
// fault-free one, bit for bit.
func sequentialStep(g *rng.RNG, n, x, pin1, pin0 int64, q, p0, p1 float64) (int64, bool) {
	m1 := float64(max(x-pin1, 0))   // free agents holding 1
	m0 := float64(max(n-x-pin0, 0)) // free agents holding 0
	nonSource := float64(n - 1)
	pStub := float64(pin1+pin0-1) / nonSource
	base := pStub + (1-pStub)*q

	u := g.Float64()
	if u < base {
		return x, false
	}
	// The activated agent holds 1 with probability m1/(n-1); it then drops
	// to 0 with probability 1-P₁. Otherwise it holds 0 and rises with
	// probability P₀. The move is picked without a branch, which would
	// mispredict on about half of the activations.
	pDown := (m1 / nonSource) * (1 - p1) * (1 - q)
	pUp := (m0 / nonSource) * p0 * (1 - q)
	var dx int64
	if u < base+pDown+pUp {
		dx = 1
	}
	if u < base+pDown {
		dx = -1
	}
	return x + dx, true
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

func (b *sequentialBody) round(d *driver) {
	n, x := d.cfg.N, b.x
	if d.faults != nil {
		x = d.perturbCount(x, b.g)
	}
	pin1, pin0 := d.pinned()
	var sampled int64
	for a := int64(0); a < n; a++ {
		// A round is n activations, seconds at n = 2²⁴, so Halt is also
		// polled every 4096 of them. A halt mid-round leaves the last
		// whole round booked and ends the run.
		if a&4095 == 4095 && d.cfg.Halt != nil && d.cfg.Halt() {
			d.results[0].Interrupted = true
			return
		}
		p0, p1 := d.probs(x)
		var did bool
		x, did = sequentialStep(b.g, n, x, pin1, pin0, d.omit, p0, p1)
		if did {
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
