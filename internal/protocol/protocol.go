// Package protocol implements the paper's protocol formalism for the
// self-stabilizing bit-dissemination problem (Section 1.1).
//
// A memory-less protocol with sample size ℓ is a pair of functions
//
//	g^[b] : {0,…,ℓ} → [0,1],   b ∈ {0,1},
//
// where g^[b](k) is the probability that an agent currently holding opinion
// b adopts opinion 1 after observing k ones among its ℓ uniform samples.
// The package provides the Rule type realizing this definition, the
// built-in dynamics studied by the paper (Voter, Minority) and its related
// work (Majority, 2-Choice, …), structural validation (Proposition 3), and
// the failure-injection wrappers used by the adversarial experiments.
package protocol

import (
	"errors"
	"fmt"
	"math"

	"bitspread/internal/dist"
)

// Sentinel validation errors, so callers can test causes with errors.Is.
var (
	// ErrSampleSize is returned when the declared sample size is < 1.
	ErrSampleSize = errors.New("protocol: sample size must be at least 1")
	// ErrTableLength is returned when a probability table does not have
	// exactly ℓ+1 entries.
	ErrTableLength = errors.New("protocol: probability table must have sample size + 1 entries")
	// ErrProbRange is returned when a table entry lies outside [0, 1].
	ErrProbRange = errors.New("protocol: probabilities must lie in [0, 1]")
	// ErrProp3 is returned by CheckProp3 when the necessary conditions of
	// Proposition 3 (g^[0](0)=0 and g^[1](ℓ)=1) are violated, i.e. the rule
	// cannot keep a consensus absorbing and therefore cannot solve
	// bit dissemination.
	ErrProp3 = errors.New("protocol: violates Proposition 3 (consensus is not absorbing)")
	// ErrEnvironmentRule is returned by Validate for environment-class
	// rules: tables that model noise or failures (e.g. WithNoise output)
	// rather than a protocol an agent could run to solve the problem.
	ErrEnvironmentRule = errors.New("protocol: environment-class rule cannot solve bit dissemination")
)

// Class separates the two kinds of Rule values this package constructs.
// The distinction closes a historical leak: wrappers like WithNoise
// deliberately produce tables violating Proposition 3 — they model the
// *environment* (noise, failures), not a runnable protocol — yet such
// tables passed every structural check and could reach contexts that
// assume stabilization is possible. Every Rule is classified at
// construction; Validate gates the protocol-only contexts.
type Class int

const (
	// ClassProtocol marks rules satisfying Proposition 3: both consensus
	// configurations are absorbing, so the rule is a candidate solution to
	// the bit-dissemination problem.
	ClassProtocol Class = iota
	// ClassEnvironment marks rules violating Proposition 3: valid as
	// failure-injection models, never as protocols.
	ClassEnvironment
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassProtocol:
		return "protocol"
	case ClassEnvironment:
		return "environment"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Rule is a concrete memory-less update rule for a fixed sample size.
// Construct instances with New or NewSymmetric; the zero value is invalid.
// A Rule is immutable after construction and safe for concurrent use.
type Rule struct {
	name  string
	ell   int
	class Class
	g0    []float64 // g^[0](k): adopt-1 probability when currently holding 0
	g1    []float64 // g^[1](k): adopt-1 probability when currently holding 1
}

// New returns a rule with the given adopt-1 probability tables, indexed by
// the number k of ones observed among the ℓ samples. g0 applies to agents
// currently holding opinion 0, g1 to agents holding 1; both must have
// exactly ℓ+1 entries in [0, 1]. The tables are copied.
func New(name string, sampleSize int, g0, g1 []float64) (*Rule, error) {
	if sampleSize < 1 {
		return nil, fmt.Errorf("%w (got %d)", ErrSampleSize, sampleSize)
	}
	if len(g0) != sampleSize+1 || len(g1) != sampleSize+1 {
		return nil, fmt.Errorf("%w (ℓ=%d, len(g0)=%d, len(g1)=%d)",
			ErrTableLength, sampleSize, len(g0), len(g1))
	}
	for k, tbl := range [][]float64{g0, g1} {
		for i, p := range tbl {
			if p < 0 || p > 1 || p != p {
				return nil, fmt.Errorf("%w (g%d(%d) = %v)", ErrProbRange, k, i, p)
			}
		}
	}
	r := &Rule{
		name: name,
		ell:  sampleSize,
		g0:   append([]float64(nil), g0...),
		g1:   append([]float64(nil), g1...),
	}
	if r.CheckProp3() != nil {
		r.class = ClassEnvironment
	}
	return r, nil
}

// NewSymmetric returns an opinion-oblivious rule, g^[0] = g^[1] = g. Most of
// the classical dynamics (Voter, Minority, Majority) are of this form.
func NewSymmetric(name string, sampleSize int, g []float64) (*Rule, error) {
	return New(name, sampleSize, g, g)
}

// MustNew is New panicking on error, for statically-correct tables in
// examples and tests.
func MustNew(name string, sampleSize int, g0, g1 []float64) *Rule {
	r, err := New(name, sampleSize, g0, g1)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the rule's human-readable name.
func (r *Rule) Name() string { return r.name }

// SampleSize returns ℓ, the number of opinions sampled per activation.
func (r *Rule) SampleSize() int { return r.ell }

// G returns g^[b](k), the probability of adopting opinion 1 given current
// opinion b and k ones among the ℓ samples. It panics if b is not 0 or 1 or
// k is outside [0, ℓ].
func (r *Rule) G(b, k int) float64 {
	if k < 0 || k > r.ell {
		panic(fmt.Sprintf("protocol: k=%d outside [0,%d]", k, r.ell))
	}
	switch b {
	case 0:
		return r.g0[k]
	case 1:
		return r.g1[k]
	default:
		panic(fmt.Sprintf("protocol: opinion %d is not binary", b))
	}
}

// Tables returns copies of the two probability tables (g^[0], g^[1]).
func (r *Rule) Tables() (g0, g1 []float64) {
	return append([]float64(nil), r.g0...), append([]float64(nil), r.g1...)
}

// IsSymmetric reports whether g^[0] = g^[1], i.e. the rule ignores the
// agent's own opinion.
func (r *Rule) IsSymmetric() bool {
	for k := range r.g0 {
		//bitlint:floatexact symmetry means the two stored tables are the same constants, bit for bit
		if r.g0[k] != r.g1[k] {
			return false
		}
	}
	return true
}

// CheckProp3 verifies the necessary conditions of Proposition 3: a rule can
// only solve the bit-dissemination problem if g^[0](0) = 0 and g^[1](ℓ) = 1,
// which make both consensus configurations absorbing. It returns nil when
// the conditions hold and an error wrapping ErrProp3 otherwise.
func (r *Rule) CheckProp3() error {
	//bitlint:floatexact Proposition 3 requires the absorbing probabilities to be exactly 0 and 1
	if r.g0[0] != 0 {
		return fmt.Errorf("%w: g[0](0) = %v, want 0", ErrProp3, r.g0[0])
	}
	//bitlint:floatexact Proposition 3 requires the absorbing probabilities to be exactly 0 and 1
	if r.g1[r.ell] != 1 {
		return fmt.Errorf("%w: g[1](ℓ) = %v, want 1", ErrProp3, r.g1[r.ell])
	}
	return nil
}

// Validate gates protocol-only contexts (job submission, the VM
// registry, search spaces): it returns nil for ClassProtocol rules and
// an error wrapping both ErrEnvironmentRule and the underlying ErrProp3
// cause otherwise. Environment-class rules remain fully usable with the
// engines — the adversarial experiments depend on that — but anything
// that promises stabilization must call Validate first.
func (r *Rule) Validate() error {
	if r.class == ClassProtocol {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrEnvironmentRule, r.CheckProp3())
}

// AdoptProb returns P_b(p) = Σ_k C(ℓ,k) p^k (1-p)^{ℓ-k} g^[b](k): the
// probability that an agent with opinion b adopts opinion 1 when the
// current global fraction of ones is p (Eq. 4 of the paper). p is clamped
// to [0, 1].
//
// The sum is evaluated by a multiplicative pmf recurrence spreading
// outward from the binomial mode, so the cost is O(ℓ) cheap operations
// plus three log-factorials (table lookups for ℓ ≤ 2¹⁴), and large sample
// sizes like ℓ = √(n log n) stay fast; starting at the mode keeps the
// recurrence underflow-safe — terms can only shrink moving away from it.
func (r *Rule) AdoptProb(b int, p float64) float64 {
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	tbl := r.g0
	if b == 1 {
		tbl = r.g1
	}
	ell := r.ell
	switch {
	//bitlint:floatexact p was just clamped; the degenerate pmf short-cuts apply only at the exact endpoints
	case p == 0:
		return tbl[0]
	//bitlint:floatexact p was just clamped; the degenerate pmf short-cuts apply only at the exact endpoints
	case p == 1:
		return tbl[ell]
	}

	mode := int(float64(ell+1) * p)
	if mode > ell {
		mode = ell
	}
	logPmf := dist.LogChoose(int64(ell), int64(mode)) +
		float64(mode)*math.Log(p) + float64(ell-mode)*math.Log1p(-p)
	pmfMode := math.Exp(logPmf)
	ratio := p / (1 - p)

	sum := pmfMode * tbl[mode]
	cur := pmfMode
	for k := mode; k < ell && cur > 0; k++ {
		cur *= float64(ell-k) / float64(k+1) * ratio
		sum += cur * tbl[k+1]
	}
	cur = pmfMode
	for k := mode; k > 0 && cur > 0; k-- {
		cur *= float64(k) / float64(ell-k+1) / ratio
		sum += cur * tbl[k-1]
	}

	if sum < 0 {
		return 0
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// String implements fmt.Stringer.
func (r *Rule) String() string {
	return fmt.Sprintf("%s(ℓ=%d)", r.name, r.ell)
}
