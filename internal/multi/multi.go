// Package multi generalizes the model to q ≥ 2 opinions, the setting of
// the paper's footnote 2: Theorem 1 "also holds when agents can choose
// from more than 2 opinions, provided that they may not adopt an opinion
// that they have never seen or adopted", because a binary initial
// configuration then evolves exactly as a binary protocol — a reduction
// this package makes executable (experiment X5).
//
// A multi-opinion rule maps the agent's opinion and the sampled count
// vector (how many of each opinion appeared among the ℓ samples) to a
// distribution over next opinions whose support is contained in
// {seen opinions} ∪ {own opinion}. The exact count-level engine mirrors
// the binary one: conditioned on the configuration, the agents of each
// opinion class transition independently, so per-class transition counts
// are multinomial.
package multi

import (
	"errors"
	"fmt"
	"math"

	"bitspread/internal/dist"
)

// Rule is a memory-less multi-opinion update rule.
type Rule interface {
	// Name returns a display name.
	Name() string
	// Opinions returns q, the number of opinions.
	Opinions() int
	// SampleSize returns ℓ.
	SampleSize() int
	// AdoptDist returns the distribution over next opinions for an agent
	// holding opinion b that sampled the given count vector (counts has
	// length q and sums to ℓ). The returned slice must sum to 1 and must
	// be supported on {j : counts[j] > 0} ∪ {b} (footnote 2).
	AdoptDist(b int, counts []int) []float64
}

// ErrSupport is returned by Validate when a rule can adopt an unseen
// opinion, violating the footnote 2 constraint.
var ErrSupport = errors.New("multi: rule adopts an opinion it has not seen")

// Validate checks a rule's distributions over every sample profile: they
// must be probability vectors respecting the support constraint. Cost is
// O(q · #profiles); profiles number C(ℓ+q-1, q-1).
func Validate(r Rule) error {
	q, ell := r.Opinions(), r.SampleSize()
	if q < 2 {
		return fmt.Errorf("multi: rule %q has %d opinions, need at least 2", r.Name(), q)
	}
	if ell < 1 {
		return fmt.Errorf("multi: rule %q has sample size %d", r.Name(), ell)
	}
	var err error
	enumerateProfiles(q, ell, func(counts []int) {
		if err != nil {
			return
		}
		for b := 0; b < q; b++ {
			d := r.AdoptDist(b, counts)
			if len(d) != q {
				err = fmt.Errorf("multi: rule %q returned %d-length distribution", r.Name(), len(d))
				return
			}
			sum := 0.0
			for j, p := range d {
				if p < 0 || p > 1 {
					err = fmt.Errorf("multi: rule %q probability %v out of range", r.Name(), p)
					return
				}
				if p > 0 && counts[j] == 0 && j != b {
					err = fmt.Errorf("%w (rule %q, opinion %d, profile %v, target %d)",
						ErrSupport, r.Name(), b, counts, j)
					return
				}
				sum += p
			}
			if sum < 1-1e-9 || sum > 1+1e-9 {
				err = fmt.Errorf("multi: rule %q distribution sums to %v", r.Name(), sum)
				return
			}
		}
	})
	return err
}

// enumerateProfiles calls fn for every count vector of length q summing
// to ell. The slice is reused; fn must not retain it.
func enumerateProfiles(q, ell int, fn func(counts []int)) {
	counts := make([]int, q)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == q-1 {
			counts[pos] = left
			fn(counts)
			return
		}
		for v := 0; v <= left; v++ {
			counts[pos] = v
			rec(pos+1, left-v)
		}
	}
	rec(0, ell)
}

// Voter returns the q-opinion Voter: adopt the opinion of one uniformly
// random sample. With binary opinions it coincides with the classical
// Voter dynamics.
func Voter(q, ell int) Rule {
	return voterRule{q: q, ell: ell}
}

type voterRule struct{ q, ell int }

func (r voterRule) Name() string    { return fmt.Sprintf("MultiVoter(q=%d)", r.q) }
func (r voterRule) Opinions() int   { return r.q }
func (r voterRule) SampleSize() int { return r.ell }

func (r voterRule) AdoptDist(b int, counts []int) []float64 {
	d := make([]float64, r.q)
	for j, c := range counts {
		d[j] = float64(c) / float64(r.ell)
	}
	return d
}

// Minority returns the q-opinion Minority: adopt the least frequent
// opinion among those present in the sample (the unanimous opinion if
// only one is present), ties broken uniformly among the tied minima.
// Restricted to binary configurations it coincides with Protocol 2.
func Minority(q, ell int) Rule {
	return minorityRule{q: q, ell: ell}
}

type minorityRule struct{ q, ell int }

func (r minorityRule) Name() string    { return fmt.Sprintf("MultiMinority(q=%d)", r.q) }
func (r minorityRule) Opinions() int   { return r.q }
func (r minorityRule) SampleSize() int { return r.ell }

func (r minorityRule) AdoptDist(b int, counts []int) []float64 {
	d := make([]float64, r.q)
	minCount := r.ell + 1
	for _, c := range counts {
		if c > 0 && c < minCount {
			minCount = c
		}
	}
	if minCount > r.ell {
		// Empty profile cannot occur for ℓ >= 1; keep own opinion to stay
		// total just in case.
		d[b] = 1
		return d
	}
	ties := 0
	for _, c := range counts {
		if c == minCount {
			ties++
		}
	}
	for j, c := range counts {
		if c == minCount {
			d[j] = 1 / float64(ties)
		}
	}
	return d
}

// multinomialPMF returns the probability of the sample profile counts
// when each of the ℓ draws lands in category j with probability p[j],
// computed in log space for stability.
func multinomialPMF(ell int, counts []int, p []float64) float64 {
	logP := dist.LogFactorial(int64(ell))
	for j, c := range counts {
		if c == 0 {
			continue
		}
		if p[j] <= 0 {
			return 0
		}
		logP += float64(c)*math.Log(p[j]) - dist.LogFactorial(int64(c))
	}
	return math.Exp(logP)
}
