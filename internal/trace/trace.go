// Package trace records and renders one-count trajectories: downsampling
// recorders that attach to an engine run as its probe, and terminal
// renderings (sparklines and signed bar charts) used by the examples and
// the bitsim tool.
package trace

import (
	"fmt"
	"strings"
)

// Recorder collects a downsampled trajectory of one run as its engine
// probe (it satisfies the engine Probe contract): RoundDone feeds the
// trajectory, and the fault/shard events are ignored. The zero value
// records nothing; construct with NewRecorder.
//
// The recorder always retains the last point it was fed: when a run
// converges at a round that is not a multiple of the sampling stride,
// the terminal point is appended to Points/Fractions/Plot anyway, so a
// trajectory ends at consensus instead of up to every-1 rounds early.
//
// Unlike the atomic obs probes it is not safe for concurrent use, so it
// watches one run, never a sweep's shared replicas.
type Recorder struct {
	every  int64
	n      int64
	rounds []int64
	counts []int64
	// Terminal-point retention: the last point fed, kept even when its
	// round is not a multiple of every.
	lastRound int64
	lastCount int64
	hasLast   bool
}

// NewRecorder returns a recorder that keeps every every-th round of a run
// over a population of n (used to normalize fractions). every < 1 is
// treated as 1.
func NewRecorder(n, every int64) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{every: every, n: n}
}

// ForBudget returns a recorder sized so a run of the given round budget
// keeps about the requested number of points.
func ForBudget(n, budget int64, points int) *Recorder {
	if points < 1 {
		points = 1
	}
	return NewRecorder(n, budget/int64(points))
}

// RoundDone implements the engine Probe contract, feeding the trajectory;
// the sampled-agent count is not part of a trajectory. On a zero-value
// (or nil) recorder it records nothing — it must never be the probe that
// crashes a run.
func (r *Recorder) RoundDone(round, ones, sampled int64) {
	if r == nil || r.every < 1 {
		return
	}
	r.lastRound, r.lastCount, r.hasLast = round, ones, true
	if round%r.every == 0 {
		r.rounds = append(r.rounds, round)
		r.counts = append(r.counts, ones)
	}
}

// FaultApplied implements the engine Probe contract; recorders track
// counts only.
func (r *Recorder) FaultApplied(round int64) {}

// ShardRound implements the engine Probe contract; recorders track
// counts only.
func (r *Recorder) ShardRound(shard int, sampled int64) {}

// points returns the retained trajectory: the downsampled points plus the
// terminal point when the run ended off-stride. The slices alias internal
// state (full-slice capped, so an append cannot clobber it); exported
// accessors copy.
func (r *Recorder) points() (rounds, counts []int64) {
	rounds = r.rounds[:len(r.rounds):len(r.rounds)]
	counts = r.counts[:len(r.counts):len(r.counts)]
	if r.hasLast && (len(rounds) == 0 || rounds[len(rounds)-1] != r.lastRound) {
		rounds = append(rounds, r.lastRound)
		counts = append(counts, r.lastCount)
	}
	return rounds, counts
}

// Len returns the number of recorded points, the terminal point included.
func (r *Recorder) Len() int {
	rounds, _ := r.points()
	return len(rounds)
}

// Points returns copies of the recorded rounds and counts, the terminal
// point included.
func (r *Recorder) Points() (rounds, counts []int64) {
	rs, cs := r.points()
	return append([]int64(nil), rs...), append([]int64(nil), cs...)
}

// Fractions returns the recorded one-fractions count/n. On a recorder
// with no population (the zero value) it returns zeros rather than
// NaN/Inf, so renderings stay well-formed.
func (r *Recorder) Fractions() []float64 {
	_, counts := r.points()
	out := make([]float64, len(counts))
	if r.n <= 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(r.n)
	}
	return out
}

// sparkGlyphs are the eight block glyphs used by Sparkline.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values in [0, 1] as a block-glyph strip. Values are
// clamped; NaN renders as the empty (bottom) glyph.
func Sparkline(values []float64) string {
	var b strings.Builder
	for _, v := range values {
		if v != v || v < 0 { // v != v: NaN from a degenerate normalization
			v = 0
		}
		idx := int(v * float64(len(sparkGlyphs)))
		if idx >= len(sparkGlyphs) {
			idx = len(sparkGlyphs) - 1
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// Sparkline renders the recorder's fraction trajectory.
func (r *Recorder) Sparkline() string { return Sparkline(r.Fractions()) }

// Plot renders the trajectory as a rows-line chart with a labeled y-axis
// of fractions, suitable for terminals. rows < 2 is clamped to 2.
func (r *Recorder) Plot(rows int) string {
	if rows < 2 {
		rows = 2
	}
	fr := r.Fractions()
	if len(fr) == 0 {
		return "(no points recorded)\n"
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", len(fr)))
	}
	for x, v := range fr {
		if v != v || v < 0 { // v != v: NaN from a degenerate normalization
			v = 0
		} else if v > 1 {
			v = 1
		}
		// Row 0 is the top (fraction 1).
		y := int((1 - v) * float64(rows-1))
		grid[y][x] = '*'
	}
	var b strings.Builder
	for i, row := range grid {
		label := "      "
		switch i {
		case 0:
			label = "1.00 |"
		case rows / 2:
			label = "0.50 |"
		case rows - 1:
			label = "0.00 |"
		default:
			label = "     |"
		}
		fmt.Fprintf(&b, "%s%s\n", label, row)
	}
	rounds, _ := r.points()
	lastRound := int64(0)
	if len(rounds) > 0 {
		lastRound = rounds[len(rounds)-1]
	}
	fmt.Fprintf(&b, "     +%s\n      round 0 .. %d (every %d)\n",
		strings.Repeat("-", len(fr)), lastRound, r.every)
	return b.String()
}
