package multi

import (
	"fmt"

	"bitspread/internal/engine"
	"bitspread/internal/rng"
)

// Config describes a multi-opinion bit-dissemination instance.
type Config struct {
	// N is the population size including the source.
	N int64
	// Rule is the multi-opinion update rule.
	Rule Rule
	// Z is the correct opinion in [0, q).
	Z int
	// X0 is the initial opinion histogram (length q, summing to N, with
	// the source counted under Z).
	X0 []int64
	// MaxRounds caps the run (0: engine.DefaultMaxRounds).
	MaxRounds int64
	// Record, if non-nil, receives (round, histogram) after every round;
	// the histogram slice is reused between calls. It is not an
	// engine.Probe because a one-count cannot carry a q-opinion histogram.
	Record func(round int64, counts []int64)
}

// Result reports a multi-opinion run.
type Result struct {
	// Converged is true when every agent held Z (the correct consensus is
	// absorbing for any valid rule: unanimous samples leave no other
	// opinion in any support set).
	Converged bool
	// Rounds is the convergence round, or the executed rounds otherwise.
	Rounds int64
	// Final is the opinion histogram when the run stopped.
	Final []int64
}

// Step advances the exact count-level chain one parallel round and
// returns the next histogram. Conditioned on the current histogram x,
// each non-source agent of opinion b independently adopts opinion j with
// probability q_b(j) = Σ_profiles P(profile | x)·AdoptDist(b, profile)[j],
// so the per-class transition counts are multinomial — the multi-opinion
// analogue of the binary engine's two binomials.
func Step(r Rule, n int64, z int, x []int64, g *rng.RNG) []int64 {
	q := r.Opinions()
	ell := r.SampleSize()
	p := make([]float64, q)
	for j, c := range x {
		p[j] = float64(c) / float64(n)
	}

	// Per-class adoption distributions.
	adopt := make([][]float64, q)
	for b := 0; b < q; b++ {
		adopt[b] = make([]float64, q)
	}
	enumerateProfiles(q, ell, func(counts []int) {
		w := multinomialPMF(ell, counts, p)
		//bitlint:floatexact sparse skip; a bit-exact zero profile weight contributes nothing
		if w == 0 {
			return
		}
		for b := 0; b < q; b++ {
			if x[b] == 0 {
				continue
			}
			d := r.AdoptDist(b, counts)
			for j, pj := range d {
				adopt[b][j] += w * pj
			}
		}
	})

	next := make([]int64, q)
	next[z]++ // the source
	for b := 0; b < q; b++ {
		m := x[b]
		if b == z {
			m-- // the source does not update
		}
		if m <= 0 {
			continue
		}
		sampleMultinomial(m, adopt[b], next, g)
	}
	return next
}

// sampleMultinomial adds a Multinomial(m, probs) draw into dst, using
// sequential conditional binomials.
func sampleMultinomial(m int64, probs []float64, dst []int64, g *rng.RNG) {
	remaining := m
	massLeft := 1.0
	for j := 0; j < len(probs)-1 && remaining > 0; j++ {
		pj := probs[j]
		if pj <= 0 {
			continue
		}
		cond := pj / massLeft
		if cond > 1 {
			cond = 1
		}
		draw := g.Binomial(remaining, cond)
		dst[j] += draw
		remaining -= draw
		massLeft -= pj
		if massLeft <= 0 {
			massLeft = 0
		}
	}
	if remaining > 0 {
		// Assign the remainder to the last positive-probability category,
		// so float round-off can never place agents on an impossible
		// opinion.
		last := len(probs) - 1
		for last > 0 && probs[last] <= 0 {
			last--
		}
		dst[last] += remaining
	}
}

// RunParallel simulates the multi-opinion parallel process with the exact
// count engine.
func RunParallel(cfg Config, g *rng.RNG) (Result, error) {
	if err := validateConfig(&cfg); err != nil {
		return Result{}, err
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = engine.DefaultMaxRounds(cfg.N)
	}
	x := append([]int64(nil), cfg.X0...)
	res := Result{Final: x}
	if x[cfg.Z] == cfg.N {
		res.Converged = true
		return res, nil
	}
	for t := int64(1); t <= maxRounds; t++ {
		x = Step(cfg.Rule, cfg.N, cfg.Z, x, g)
		res.Rounds = t
		res.Final = x
		if cfg.Record != nil {
			cfg.Record(t, x)
		}
		if x[cfg.Z] == cfg.N {
			res.Converged = true
			return res, nil
		}
	}
	return res, nil
}

func validateConfig(cfg *Config) error {
	if cfg.Rule == nil {
		return fmt.Errorf("multi: rule must not be nil")
	}
	q := cfg.Rule.Opinions()
	if cfg.N < 2 {
		return fmt.Errorf("multi: population %d too small", cfg.N)
	}
	if cfg.Z < 0 || cfg.Z >= q {
		return fmt.Errorf("multi: correct opinion %d outside [0,%d)", cfg.Z, q)
	}
	if len(cfg.X0) != q {
		return fmt.Errorf("multi: X0 has %d entries, want %d", len(cfg.X0), q)
	}
	var sum int64
	for j, c := range cfg.X0 {
		if c < 0 {
			return fmt.Errorf("multi: X0[%d] = %d negative", j, c)
		}
		sum += c
	}
	if sum != cfg.N {
		return fmt.Errorf("multi: X0 sums to %d, want %d", sum, cfg.N)
	}
	if cfg.X0[cfg.Z] < 1 {
		return fmt.Errorf("multi: the source holds opinion %d but X0[%d] = 0", cfg.Z, cfg.Z)
	}
	return nil
}
