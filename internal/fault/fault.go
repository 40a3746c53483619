// Package fault is the deterministic fault-injection subsystem: a seeded
// Schedule of mid-run perturbations applied at parallel-round boundaries
// through the engine's Perturber hooks. It turns the paper's defining
// property — self-stabilization, convergence from *any* configuration —
// into something measurable: instead of only choosing the initial
// configuration adversarially, a schedule rewrites opinions, crashes and
// rejoins agents, pins Byzantine minorities, drops updates, and takes the
// source down mid-flight, and Recovery reports how many rounds the
// dynamics needed to re-converge once the disturbance ended.
//
// Determinism contract: a Schedule holds no mutable state and consumes
// randomness only from the generator the engine hands it, so a (seed,
// schedule) pair reproduces the same trajectory on every engine and at
// every worker count, and an empty schedule consumes nothing — engines
// with a nil or empty schedule are byte-identical to the unhooked code.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"bitspread/internal/engine"
	"bitspread/internal/rng"
)

// Kind enumerates the fault kinds a Schedule can inject.
type Kind uint8

const (
	// Reset rewrites a Fraction of the perturbable non-source agents to
	// Opinion at round Round — the adversarial configuration reset.
	Reset Kind = iota + 1
	// Churn crashes a Fraction of the perturbable non-source agents at
	// round Round; each rejoins immediately with an opinion drawn
	// Bernoulli(Bias) — memory-less rebooting.
	Churn
	// Stubborn pins a Fraction of the non-source agents at Opinion for
	// Duration rounds starting at Round: a Byzantine minority that ignores
	// the rule.
	Stubborn
	// Omission makes every non-source update in rounds [Round,
	// Round+Duration) fail independently with probability Prob (the agent
	// keeps its opinion) — a correlated sample-omission burst.
	Omission
	// SourceCrash makes the source hold the wrong opinion 1-z during
	// rounds [Round, Round+Duration), recovering afterwards.
	SourceCrash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Reset:
		return "reset"
	case Churn:
		return "churn"
	case Stubborn:
		return "stubborn"
	case Omission:
		return "omission"
	case SourceCrash:
		return "source-crash"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// windowed reports whether the kind spans Duration rounds (as opposed to
// firing once at Round).
func (k Kind) windowed() bool {
	return k == Stubborn || k == Omission || k == SourceCrash
}

// boundary reports whether the kind rewrites opinions at its start round.
func (k Kind) boundary() bool {
	return k == Reset || k == Churn || k == Stubborn
}

// Event is one scheduled fault. Unused fields for a kind are ignored by
// the engine hooks but still validated when set (fractions and
// probabilities must be in [0,1] regardless).
type Event struct {
	Kind Kind
	// Round is the first affected parallel round, 1-based: boundary kinds
	// fire before the round's updates, windowed kinds are active from it.
	Round int64
	// Duration is the window length in rounds for Stubborn, Omission and
	// SourceCrash; it must be 0 for the point kinds Reset and Churn.
	Duration int64
	// Fraction of the perturbable non-source agents hit by Reset, Churn or
	// Stubborn.
	Fraction float64
	// Opinion is the value Reset and Stubborn write, 0 or 1.
	Opinion int
	// Bias is the probability a churned agent rejoins holding opinion 1.
	Bias float64
	// Prob is the per-agent, per-round omission probability.
	Prob float64
}

// end returns the first round no longer affected by the event.
func (e Event) end() int64 {
	if e.Kind.windowed() {
		return e.Round + e.Duration
	}
	return e.Round + 1
}

// active reports whether the event affects round t.
func (e Event) active(t int64) bool {
	return t >= e.Round && t < e.end()
}

// String renders the event compactly, e.g. "reset@12(f=1,op=0)".
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%d", e.Kind, e.Round)
	if e.Kind.windowed() {
		fmt.Fprintf(&b, "+%d", e.Duration)
	}
	switch e.Kind {
	case Reset:
		fmt.Fprintf(&b, "(f=%g,op=%d)", e.Fraction, e.Opinion)
	case Churn:
		fmt.Fprintf(&b, "(f=%g,bias=%g)", e.Fraction, e.Bias)
	case Stubborn:
		fmt.Fprintf(&b, "(f=%g,op=%d)", e.Fraction, e.Opinion)
	case Omission:
		fmt.Fprintf(&b, "(q=%g)", e.Prob)
	}
	return b.String()
}

// Convenience constructors for the five kinds.

// ResetAt rewrites fraction of the non-source agents to opinion at round.
func ResetAt(round int64, fraction float64, opinion int) Event {
	return Event{Kind: Reset, Round: round, Fraction: fraction, Opinion: opinion}
}

// ChurnAt crashes fraction of the non-source agents at round; each rejoins
// with an opinion drawn Bernoulli(bias).
func ChurnAt(round int64, fraction, bias float64) Event {
	return Event{Kind: Churn, Round: round, Fraction: fraction, Bias: bias}
}

// StubbornFor pins fraction of the non-source agents at opinion for
// duration rounds starting at round.
func StubbornFor(round, duration int64, fraction float64, opinion int) Event {
	return Event{Kind: Stubborn, Round: round, Duration: duration, Fraction: fraction, Opinion: opinion}
}

// OmissionFor drops each non-source update with probability prob during
// rounds [round, round+duration).
func OmissionFor(round, duration int64, prob float64) Event {
	return Event{Kind: Omission, Round: round, Duration: duration, Prob: prob}
}

// SourceCrashFor takes the source down (it holds 1-z) for duration rounds
// starting at round.
func SourceCrashFor(round, duration int64) Event {
	return Event{Kind: SourceCrash, Round: round, Duration: duration}
}

// Schedule is a validated, immutable set of events implementing the
// engine's Perturber hooks. The zero value and nil are valid empty
// schedules.
type Schedule struct {
	events  []Event // sorted by Round
	horizon int64
}

// Compile-time check that Schedule satisfies the engine contract.
var _ engine.Perturber = (*Schedule)(nil)

// New validates the events and returns the schedule; see Validate for the
// rules.
func New(events ...Event) (*Schedule, error) {
	if err := Validate(events); err != nil {
		return nil, err
	}
	s := &Schedule{events: append([]Event(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Round < s.events[j].Round })
	for _, e := range s.events {
		if end := e.end() - 1; end > s.horizon {
			s.horizon = end
		}
	}
	return s, nil
}

// Must is New for statically-known schedules; it panics on invalid events.
func Must(events ...Event) *Schedule {
	s, err := New(events...)
	if err != nil {
		panic(fmt.Sprintf("fault: invalid schedule: %v", err))
	}
	return s
}

// inUnit reports v ∈ [0,1] (false for NaN).
func inUnit(v float64) bool { return v >= 0 && v <= 1 }

// Validate reports the first problem with an event list:
//
//   - every Round must be ≥ 1, every probability/fraction in [0,1] and
//     every Opinion 0 or 1;
//   - windowed kinds need Duration ≥ 1, point kinds must leave it 0;
//   - boundary kinds (Reset, Churn, Stubborn) must not share a start
//     round, so their rewrite order is never ambiguous;
//   - Stubborn windows must not overlap each other: the pinned set is the
//     lowest-index prefix, which is only well defined for one window at a
//     time. Reset/Churn *inside* a stubborn window are fine — they only
//     touch the unpinned pool.
func Validate(events []Event) error {
	for i, e := range events {
		switch e.Kind {
		case Reset, Churn, Stubborn, Omission, SourceCrash:
		default:
			return fmt.Errorf("event %d: unknown kind %d", i, uint8(e.Kind))
		}
		if e.Round < 1 {
			return fmt.Errorf("event %d (%s): round %d < 1", i, e.Kind, e.Round)
		}
		if e.Kind.windowed() {
			if e.Duration < 1 {
				return fmt.Errorf("event %d (%s): duration %d < 1", i, e.Kind, e.Duration)
			}
			if e.Round > math.MaxInt64-e.Duration {
				return fmt.Errorf("event %d (%s): window overflows", i, e.Kind)
			}
		} else if e.Duration != 0 {
			return fmt.Errorf("event %d (%s): point events take no duration (got %d)", i, e.Kind, e.Duration)
		}
		if !inUnit(e.Fraction) {
			return fmt.Errorf("event %d (%s): fraction %v outside [0,1]", i, e.Kind, e.Fraction)
		}
		if !inUnit(e.Bias) {
			return fmt.Errorf("event %d (%s): bias %v outside [0,1]", i, e.Kind, e.Bias)
		}
		if !inUnit(e.Prob) {
			return fmt.Errorf("event %d (%s): probability %v outside [0,1]", i, e.Kind, e.Prob)
		}
		if e.Opinion != 0 && e.Opinion != 1 {
			return fmt.Errorf("event %d (%s): opinion %d not 0/1", i, e.Kind, e.Opinion)
		}
	}
	for i, a := range events {
		if !a.Kind.boundary() {
			continue
		}
		for j, b := range events {
			if i == j {
				continue
			}
			if b.Kind.boundary() && j > i && a.Round == b.Round {
				return fmt.Errorf("events %d and %d both rewrite opinions at round %d", i, j, a.Round)
			}
			if a.Kind == Stubborn && b.Kind == Stubborn && b.active(a.Round) && a.Round != b.Round {
				return fmt.Errorf("stubborn event %d starts inside stubborn window of event %d", i, j)
			}
		}
	}
	return nil
}

// String renders the schedule as its event list, stable across runs — the
// sim layer folds it into checkpoint fingerprints.
func (s *Schedule) String() string {
	if s.Empty() {
		return "no-faults"
	}
	parts := make([]string, len(s.events))
	for i, e := range s.events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Empty implements engine.Perturber; nil-safe.
func (s *Schedule) Empty() bool { return s == nil || len(s.events) == 0 }

// Horizon implements engine.Perturber: the last round any event affects.
func (s *Schedule) Horizon() int64 {
	if s == nil {
		return 0
	}
	return s.horizon
}

// BoundaryAt implements engine.Perturber.
func (s *Schedule) BoundaryAt(t int64) bool {
	if s == nil {
		return false
	}
	for _, e := range s.events {
		if e.Round == t && e.Kind.boundary() {
			return true
		}
	}
	return false
}

// SourceOpinion implements engine.Perturber.
func (s *Schedule) SourceOpinion(t int64, z int) int {
	if s == nil {
		return z
	}
	for _, e := range s.events {
		if e.Kind == SourceCrash && e.active(t) {
			return 1 - z
		}
	}
	return z
}

// OmitProb implements engine.Perturber; overlapping omission bursts take
// the strongest one.
func (s *Schedule) OmitProb(t int64) float64 {
	if s == nil {
		return 0
	}
	q := 0.0
	for _, e := range s.events {
		if e.Kind == Omission && e.active(t) && e.Prob > q {
			q = e.Prob
		}
	}
	return q
}

// stubbornCount converts a pinned fraction to an agent count for
// population n (non-source agents only).
func stubbornCount(fraction float64, n int64) int64 {
	return int64(math.Round(fraction * float64(n-1)))
}

// Stubborn implements engine.Perturber.
func (s *Schedule) Stubborn(t, n int64) (ones, zeros int64) {
	if s == nil {
		return 0, 0
	}
	for _, e := range s.events {
		if e.Kind != Stubborn || !e.active(t) {
			continue
		}
		if e.Opinion == 1 {
			ones += stubbornCount(e.Fraction, n)
		} else {
			zeros += stubbornCount(e.Fraction, n)
		}
	}
	return ones, zeros
}

// PerturbCount implements engine.Perturber for the count-level engines:
// the chosen victims' previous opinions are hypergeometric in the current
// count, so the perturbed count has exactly the distribution of rewriting
// uniformly-chosen agents.
func (s *Schedule) PerturbCount(t, n int64, src int, x int64, g *rng.RNG) int64 {
	if s == nil {
		return x
	}
	for _, e := range s.events {
		if e.Round != t || !e.Kind.boundary() {
			continue
		}
		switch e.Kind {
		case Stubborn:
			// Pin over the full non-source population (no other boundary
			// event or stubborn window is active at t — validated).
			k := stubbornCount(e.Fraction, n)
			h := g.Hypergeometric(n-1, clampCount(x-int64(src), n-1), k)
			x += int64(e.Opinion)*k - h
		case Reset, Churn:
			s1, s0 := s.Stubborn(t, n)
			pool := n - 1 - s1 - s0
			poolOnes := clampCount(x-int64(src)-s1, pool)
			k := int64(math.Round(e.Fraction * float64(pool)))
			h := g.Hypergeometric(pool, poolOnes, k)
			if e.Kind == Reset {
				x += int64(e.Opinion)*k - h
			} else {
				x += g.Binomial(k, e.Bias) - h
			}
		}
	}
	return x
}

// clampCount keeps a derived count inside [0, max]; validated schedules
// never trip it, but a defensive engine should not hand rng a negative.
func clampCount(v, max int64) int64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

// PerturbAgents implements engine.Perturber for the agent-level engines.
// Stubborn events pin the lowest non-source indices — agents are
// anonymous, so a fixed pinned set is distributionally equivalent to a
// uniform one — and Reset/Churn choose their victims uniformly among the
// unpinned agents by Floyd's subset sampling.
func (s *Schedule) PerturbAgents(t int64, ops []uint8, g *rng.RNG) {
	if s == nil {
		return
	}
	n := int64(len(ops))
	for _, e := range s.events {
		if e.Round != t || !e.Kind.boundary() {
			continue
		}
		switch e.Kind {
		case Stubborn:
			k := stubbornCount(e.Fraction, n)
			for i := int64(1); i <= k; i++ {
				ops[i] = uint8(e.Opinion)
			}
		case Reset, Churn:
			s1, s0 := s.Stubborn(t, n)
			lo := 1 + s1 + s0 // first perturbable index
			pool := n - lo
			k := int64(math.Round(e.Fraction * float64(pool)))
			forEachVictim(pool, k, g, func(idx int64) {
				if e.Kind == Reset {
					ops[lo+idx] = uint8(e.Opinion)
				} else if g.Bernoulli(e.Bias) {
					ops[lo+idx] = 1
				} else {
					ops[lo+idx] = 0
				}
			})
		}
	}
}

// forEachVictim visits k distinct uniform indices in [0, pool) via Floyd's
// subset-sampling algorithm: O(k) draws and O(k) memory, independent of
// pool, so boundary events stay cheap even for 10⁸-agent populations.
func forEachVictim(pool, k int64, g *rng.RNG, visit func(int64)) {
	if k >= pool {
		for i := int64(0); i < pool; i++ {
			visit(i)
		}
		return
	}
	chosen := make(map[int64]struct{}, k)
	for j := pool - k; j < pool; j++ {
		v := int64(g.Intn(int(j + 1)))
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		visit(v)
	}
}

// Recovery reports the number of rounds the run needed after the last
// scheduled disturbance to reach the correct consensus: Result.Rounds
// minus the schedule horizon (0 if consensus coincided with the horizon).
// ok is false when the run never converged — the dynamics did not
// stabilize within its budget.
func (s *Schedule) Recovery(r engine.Result) (rounds int64, ok bool) {
	if !r.Converged {
		return 0, false
	}
	rounds = r.Rounds - s.Horizon()
	if rounds < 0 {
		rounds = 0
	}
	return rounds, true
}
