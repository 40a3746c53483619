package trace

import (
	"strings"
	"testing"
)

func TestRecorderDownsamples(t *testing.T) {
	r := NewRecorder(100, 10)
	for round := int64(1); round <= 95; round++ {
		r.RoundDone(round, round, 0)
	}
	// Rounds 10..90 on the stride, plus the retained terminal round 95.
	if r.Len() != 10 {
		t.Fatalf("recorded %d points, want 10 (rounds 10..90 + terminal 95)", r.Len())
	}
	rounds, counts := r.Points()
	if rounds[0] != 10 || counts[0] != 10 {
		t.Errorf("first point = (%d, %d)", rounds[0], counts[0])
	}
	if rounds[8] != 90 {
		t.Errorf("last stride round = %d", rounds[8])
	}
	if rounds[9] != 95 || counts[9] != 95 {
		t.Errorf("terminal point = (%d, %d), want (95, 95)", rounds[9], counts[9])
	}
}

// TestRecorderTerminalRetention is the regression test for the dropped
// terminal round: a run converging off-stride must still surface its
// final point, exactly once, without duplicating an on-stride ending.
func TestRecorderTerminalRetention(t *testing.T) {
	r := NewRecorder(100, 10)
	for round := int64(1); round <= 20; round++ {
		r.RoundDone(round, round, 0)
	}
	// On-stride ending: no duplicate terminal point.
	rounds, _ := r.Points()
	if len(rounds) != 2 || rounds[1] != 20 {
		t.Fatalf("on-stride points = %v, want [10 20]", rounds)
	}
	r.RoundDone(23, 99, 0)
	rounds, counts := r.Points()
	if len(rounds) != 3 || rounds[2] != 23 || counts[2] != 99 {
		t.Fatalf("off-stride points = %v/%v, want terminal (23, 99)", rounds, counts)
	}
	if len(r.Fractions()) != 3 {
		t.Errorf("Fractions len = %d, want 3", len(r.Fractions()))
	}
	if !strings.Contains(r.Plot(3), "round 0 .. 23") {
		t.Errorf("Plot does not reach the terminal round:\n%s", r.Plot(3))
	}
	// The terminal point is only the run's LAST point: once a later
	// on-stride round arrives, the former off-stride tail (23) drops back
	// out of the downsample.
	r.RoundDone(30, 30, 0)
	rounds, _ = r.Points()
	if len(rounds) != 3 || rounds[2] != 30 {
		t.Errorf("points after round 30 = %v, want [10 20 30]", rounds)
	}
}

// TestZeroValueRecorderIsInert is the regression test for the zero-value
// panic: the docs promise "the zero value records nothing", but the
// recorder used to divide by the zero stride.
func TestZeroValueRecorderIsInert(t *testing.T) {
	var r Recorder
	r.RoundDone(1, 5, 0) // must not panic
	r.RoundDone(2, 6, 4)
	if r.Len() != 0 {
		t.Errorf("zero value recorded %d points", r.Len())
	}
	if fr := r.Fractions(); len(fr) != 0 {
		t.Errorf("zero value fractions = %v", fr)
	}
	if got := r.Sparkline(); got != "" {
		t.Errorf("zero value sparkline = %q", got)
	}
	if got := r.Plot(3); !strings.Contains(got, "no points") {
		t.Errorf("zero value plot = %q", got)
	}
	var nilR *Recorder
	nilR.RoundDone(1, 5, 0) // nil receiver is inert too
}

// TestFractionsZeroPopulation is the regression test for the NaN leak: a
// recorder built without a population must yield zeros, not NaN, and the
// renderers must survive NaN inputs regardless.
func TestFractionsZeroPopulation(t *testing.T) {
	r := &Recorder{every: 1} // hand-rolled: n == 0 but recording enabled
	r.RoundDone(1, 5, 0)
	fr := r.Fractions()
	if len(fr) != 1 || fr[0] != 0 {
		t.Errorf("fractions with n=0 = %v, want [0]", fr)
	}
	if got := r.Sparkline(); got != "▁" {
		t.Errorf("sparkline with n=0 = %q", got)
	}
	nan := 0.0
	nan /= nan
	if got := Sparkline([]float64{nan, 0.5}); got != "▁▅" {
		t.Errorf("Sparkline with NaN = %q, want %q", got, "▁▅")
	}
	if out := r.Plot(3); !strings.Contains(out, "*") {
		t.Errorf("plot with n=0 lost its point:\n%s", out)
	}
}

func TestRecorderEveryClamped(t *testing.T) {
	r := NewRecorder(10, 0)
	r.RoundDone(1, 5, 0)
	if r.Len() != 1 {
		t.Error("every=0 should record every round")
	}
}

func TestForBudget(t *testing.T) {
	r := ForBudget(100, 600, 60)
	for round := int64(1); round <= 600; round++ {
		r.RoundDone(round, 50, 0)
	}
	if r.Len() != 60 {
		t.Errorf("recorded %d points, want 60", r.Len())
	}
	if r2 := ForBudget(100, 5, 0); r2.every != 5 {
		t.Errorf("points=0 handling: every = %d", r2.every)
	}
}

func TestFractions(t *testing.T) {
	r := NewRecorder(200, 1)
	r.RoundDone(1, 100, 0)
	r.RoundDone(2, 200, 0)
	fr := r.Fractions()
	if len(fr) != 2 || fr[0] != 0.5 || fr[1] != 1 {
		t.Errorf("fractions = %v", fr)
	}
}

func TestPointsAreCopies(t *testing.T) {
	r := NewRecorder(10, 1)
	r.RoundDone(1, 5, 0)
	rounds, _ := r.Points()
	rounds[0] = 999
	if again, _ := r.Points(); again[0] != 1 {
		t.Error("Points leaked internal state")
	}
}

func TestSparkline(t *testing.T) {
	got := Sparkline([]float64{0, 0.5, 1, -1, 2})
	want := "▁▅█▁█"
	if got != want {
		t.Errorf("Sparkline = %q, want %q", got, want)
	}
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
}

func TestRecorderSparkline(t *testing.T) {
	r := NewRecorder(8, 1)
	r.RoundDone(1, 0, 0)
	r.RoundDone(2, 8, 0)
	if got := r.Sparkline(); got != "▁█" {
		t.Errorf("Sparkline = %q", got)
	}
}

func TestPlot(t *testing.T) {
	r := NewRecorder(10, 1)
	r.RoundDone(1, 0, 0)
	r.RoundDone(2, 5, 0)
	r.RoundDone(3, 10, 0)
	out := r.Plot(5)
	if !strings.Contains(out, "1.00 |") || !strings.Contains(out, "0.00 |") {
		t.Errorf("axis labels missing:\n%s", out)
	}
	if strings.Count(out, "*") != 3 {
		t.Errorf("expected 3 plotted points:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Fraction 1 plots on the top row, fraction 0 on the bottom data row.
	if !strings.Contains(lines[0], "*") {
		t.Errorf("top row missing the max point:\n%s", out)
	}
	if !strings.Contains(lines[4], "*") {
		t.Errorf("bottom row missing the min point:\n%s", out)
	}
}

func TestPlotEmptyAndClamp(t *testing.T) {
	r := NewRecorder(10, 1)
	if got := r.Plot(5); !strings.Contains(got, "no points") {
		t.Errorf("empty plot = %q", got)
	}
	r.RoundDone(1, 5, 0)
	if out := r.Plot(1); strings.Count(out, "|") < 2 {
		t.Errorf("rows clamp failed:\n%s", out)
	}
}
