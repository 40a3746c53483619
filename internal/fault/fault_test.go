package fault

import (
	"strings"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/rng"
)

func TestValidateRejects(t *testing.T) {
	bad := []struct {
		name   string
		events []Event
	}{
		{"unknown kind", []Event{{Kind: Kind(99), Round: 1}}},
		{"round zero", []Event{ResetAt(0, 0.5, 1)}},
		{"negative round", []Event{ChurnAt(-3, 0.5, 0.5)}},
		{"point with duration", []Event{{Kind: Reset, Round: 2, Duration: 4, Fraction: 0.5}}},
		{"window without duration", []Event{{Kind: Omission, Round: 2, Prob: 0.5}}},
		{"fraction above one", []Event{ResetAt(1, 1.5, 1)}},
		{"negative bias", []Event{ChurnAt(1, 0.5, -0.1)}},
		{"prob NaN", []Event{{Kind: Omission, Round: 1, Duration: 1, Prob: nan()}}},
		{"bad opinion", []Event{{Kind: Reset, Round: 1, Fraction: 0.5, Opinion: 2}}},
		{"same-round boundary pair", []Event{ResetAt(4, 0.5, 1), ChurnAt(4, 0.2, 0.5)}},
		{"overlapping stubborn", []Event{StubbornFor(2, 10, 0.1, 1), StubbornFor(5, 3, 0.1, 0)}},
	}
	for _, tt := range bad {
		t.Run(tt.name, func(t *testing.T) {
			if err := Validate(tt.events); err == nil {
				t.Errorf("accepted %v", tt.events)
			}
			if _, err := New(tt.events...); err == nil {
				t.Errorf("New accepted %v", tt.events)
			}
		})
	}
}

func nan() float64 { var z float64; return z / z }

func TestValidateAccepts(t *testing.T) {
	good := [][]Event{
		nil,
		{ResetAt(1, 1, 0)},
		{ResetAt(3, 0.5, 1), ChurnAt(5, 0.25, 0.5), OmissionFor(3, 10, 0.9)},
		{StubbornFor(2, 4, 0.1, 0), ResetAt(3, 1, 1)},          // reset inside stubborn window
		{SourceCrashFor(1, 8), SourceCrashFor(4, 8)},           // crash windows may overlap
		{StubbornFor(2, 3, 0.1, 1), StubbornFor(5, 3, 0.1, 0)}, // back-to-back windows
	}
	for _, events := range good {
		if err := Validate(events); err != nil {
			t.Errorf("rejected %v: %v", events, err)
		}
	}
}

func TestMustPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Must accepted an invalid schedule")
		}
	}()
	Must(ResetAt(0, 1, 1))
}

func TestEmptyAndHorizon(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() || nilSched.Horizon() != 0 {
		t.Error("nil schedule not empty/zero-horizon")
	}
	if s := Must(); !s.Empty() {
		t.Error("zero-event schedule not empty")
	}
	s := Must(ResetAt(5, 1, 0), OmissionFor(3, 10, 0.5), SourceCrashFor(2, 4))
	if s.Empty() {
		t.Error("non-empty schedule reported empty")
	}
	// omission covers rounds 3..12 — the latest effect.
	if got := s.Horizon(); got != 12 {
		t.Errorf("horizon = %d, want 12", got)
	}
}

func TestWindowQueries(t *testing.T) {
	s := Must(
		SourceCrashFor(4, 3),      // rounds 4,5,6
		OmissionFor(2, 2, 0.25),   // rounds 2,3
		OmissionFor(3, 2, 0.75),   // rounds 3,4 — stronger burst wins on 3
		StubbornFor(5, 2, 0.5, 1), // rounds 5,6
	)
	if s.SourceOpinion(3, 1) != 1 || s.SourceOpinion(4, 1) != 0 || s.SourceOpinion(6, 1) != 0 || s.SourceOpinion(7, 1) != 1 {
		t.Error("source crash window wrong")
	}
	if s.SourceOpinion(5, 0) != 1 {
		t.Error("crashed source must hold 1-z")
	}
	if q := s.OmitProb(1); q != 0 {
		t.Errorf("omit(1) = %v", q)
	}
	if q := s.OmitProb(2); q != 0.25 {
		t.Errorf("omit(2) = %v", q)
	}
	if q := s.OmitProb(3); q != 0.75 {
		t.Errorf("omit(3) = %v, want the stronger burst", q)
	}
	if q := s.OmitProb(5); q != 0 {
		t.Errorf("omit(5) = %v", q)
	}
	ones, zeros := s.Stubborn(5, 101)
	if ones != 50 || zeros != 0 {
		t.Errorf("stubborn(5) = %d,%d want 50,0", ones, zeros)
	}
	if ones, _ := s.Stubborn(7, 101); ones != 0 {
		t.Error("stubborn outside window")
	}
	if !s.BoundaryAt(5) || s.BoundaryAt(4) {
		t.Error("BoundaryAt wrong (stubborn activation is a boundary; omission/source are not)")
	}
}

func TestPerturbCountDeterministicCases(t *testing.T) {
	g := rng.New(1)
	const n = 101
	// Full reset to 0: every non-source agent drops to 0.
	s := Must(ResetAt(3, 1, 0))
	if x := s.PerturbCount(3, n, 1, 60, g); x != 1 {
		t.Errorf("full reset to 0: x = %d, want 1 (source only)", x)
	}
	// Full reset to 1 with source holding 0.
	s = Must(ResetAt(3, 1, 1))
	if x := s.PerturbCount(3, n, 0, 60, g); x != n-1 {
		t.Errorf("full reset to 1: x = %d, want %d", x, n-1)
	}
	// Churn with bias 1: the whole pool rejoins at 1.
	s = Must(ChurnAt(2, 1, 1))
	if x := s.PerturbCount(2, n, 1, 8, g); x != n {
		t.Errorf("churn bias 1: x = %d, want %d", x, n)
	}
	// Wrong round: untouched, no randomness consumed.
	s = Must(ResetAt(3, 1, 0))
	before := rng.New(7)
	after := rng.New(7)
	if x := s.PerturbCount(2, n, 1, 60, after); x != 60 {
		t.Errorf("off-round perturb moved the count to %d", x)
	}
	if before.Uint64() != after.Uint64() {
		t.Error("off-round perturb consumed randomness")
	}
}

func TestPerturbCountInvariant(t *testing.T) {
	g := rng.New(42)
	const n = 64
	schedules := []*Schedule{
		Must(ResetAt(1, 0.5, 1)),
		Must(ChurnAt(1, 0.3, 0.7)),
		Must(StubbornFor(1, 5, 0.25, 0)),
		Must(StubbornFor(1, 5, 0.25, 1), ResetAt(3, 1, 0)),
	}
	for _, s := range schedules {
		for src := 0; src <= 1; src++ {
			lo, hi := int64(src), int64(n-1+src)
			for trial := 0; trial < 200; trial++ {
				x := lo + int64(g.Intn(int(hi-lo+1)))
				for tr := int64(1); tr <= 5; tr++ {
					x = s.PerturbCount(tr, n, src, x, g)
					if x < lo || x > hi {
						t.Fatalf("%v: count %d escaped [%d,%d]", s, x, lo, hi)
					}
				}
			}
		}
	}
}

func TestPerturbAgentsMatchesCountSemantics(t *testing.T) {
	const n = 200
	g := rng.New(9)
	// Full reset to 0 zeroes every non-source agent, leaves the source.
	s := Must(ResetAt(1, 1, 0))
	ops := make([]uint8, n)
	for i := range ops {
		ops[i] = 1
	}
	s.PerturbAgents(1, ops, g)
	if ops[0] != 1 {
		t.Error("reset touched the source slot")
	}
	for i := 1; i < n; i++ {
		if ops[i] != 0 {
			t.Fatalf("agent %d survived a full reset", i)
		}
	}
	// Stubborn pins the lowest prefix; a same-window reset leaves it alone.
	s = Must(StubbornFor(1, 4, 0.25, 1), ResetAt(2, 1, 0))
	ops = make([]uint8, n)
	s.PerturbAgents(1, ops, g)
	pinned := int(stubbornCount(0.25, n))
	for i := 1; i <= pinned; i++ {
		if ops[i] != 1 {
			t.Fatalf("agent %d not pinned", i)
		}
	}
	for i := 1; i < n; i++ {
		if i > pinned && ops[i] != 0 {
			t.Fatalf("agent %d flipped without an event", i)
		}
	}
	s.PerturbAgents(2, ops, g)
	for i := 1; i <= pinned; i++ {
		if ops[i] != 1 {
			t.Fatalf("reset inside stubborn window overwrote pinned agent %d", i)
		}
	}
}

func TestPerturbAgentsFractionCounts(t *testing.T) {
	const n = 1000
	g := rng.New(11)
	s := Must(ResetAt(1, 0.5, 1))
	ops := make([]uint8, n)
	s.PerturbAgents(1, ops, g)
	var ones int
	for _, v := range ops[1:] {
		ones += int(v)
	}
	want := (n - 1) / 2
	if ones != want && ones != want+1 {
		t.Errorf("reset half to 1: %d ones, want ~%d", ones, want)
	}
}

func TestForEachVictimDistinct(t *testing.T) {
	g := rng.New(3)
	for _, k := range []int64{0, 1, 7, 50, 99, 100} {
		seen := map[int64]bool{}
		forEachVictim(100, k, g, func(i int64) {
			if i < 0 || i >= 100 {
				t.Fatalf("victim %d out of range", i)
			}
			if seen[i] {
				t.Fatalf("victim %d visited twice (k=%d)", i, k)
			}
			seen[i] = true
		})
		want := k
		if want > 100 {
			want = 100
		}
		if int64(len(seen)) != want {
			t.Errorf("k=%d visited %d victims", k, len(seen))
		}
	}
}

func TestRecovery(t *testing.T) {
	s := Must(ResetAt(10, 1, 0))
	if _, ok := s.Recovery(engine.Result{Converged: false, Rounds: 50}); ok {
		t.Error("recovery reported for a non-converged run")
	}
	rounds, ok := s.Recovery(engine.Result{Converged: true, Rounds: 37})
	if !ok || rounds != 27 {
		t.Errorf("recovery = %d,%v want 27,true", rounds, ok)
	}
	rounds, ok = s.Recovery(engine.Result{Converged: true, Rounds: 10})
	if !ok || rounds != 0 {
		t.Errorf("recovery at horizon = %d,%v want 0,true", rounds, ok)
	}
}

func TestStringForms(t *testing.T) {
	var nilSched *Schedule
	if nilSched.String() != "no-faults" {
		t.Errorf("nil schedule string %q", nilSched.String())
	}
	s := Must(ResetAt(5, 1, 0), OmissionFor(2, 3, 0.5))
	str := s.String()
	for _, want := range []string{"reset@5", "omission@2+3", "q=0.5"} {
		if !strings.Contains(str, want) {
			t.Errorf("schedule string %q missing %q", str, want)
		}
	}
	for k := Reset; k <= SourceCrash; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(99).String(), "Kind(") {
		t.Error("unknown kind string")
	}
}
