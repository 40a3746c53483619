// Package experiments defines the reproduction harness: one runnable
// experiment per theorem, proposition and figure of the paper (plus the
// context results it builds on and the extension studies from the
// discussion section). Each experiment produces the table of rows its
// statement predicts, together with headline metrics that the test suite
// and EXPERIMENTS.md assert on.
//
// The paper is a brief announcement with no empirical tables, so "the
// evaluation" is its set of formal claims; every claim becomes a
// finite-size, seeded Monte-Carlo (or exact Markov) measurement whose
// shape — who wins, by what growth order, where crossovers fall — must
// match the statement. See DESIGN.md §4 for the full index.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"bitspread/internal/engine"
	"bitspread/internal/sim"
)

// Options control experiment sizing and reproducibility.
type Options struct {
	// Seed drives all randomness; equal seeds give identical outputs.
	Seed uint64
	// Workers bounds simulation concurrency (<= 0: GOMAXPROCS).
	Workers int
	// Quick shrinks population sizes and replica counts so the whole suite
	// runs in seconds (used by `go test`); full-size runs are the default
	// for the benchmark harness and cmd/bitsweep.
	Quick bool
	// Ctx, if non-nil, cancels the sweep's replicas (cmd/bitsweep wires
	// SIGINT/SIGTERM and -timeout through it); a cancelled experiment
	// returns the context error rather than a partial table.
	Ctx context.Context
	// Journal, if non-nil, checkpoints every finished replica — all but
	// F1's — so an interrupted sweep resumes without recomputation. A
	// shard journal (a partition) makes F1 compute nothing.
	Journal *sim.Journal
	// Probe, if non-nil, is attached to every engine run of the suite
	// that takes a probe: every sim task's Config.Probe, X10's count
	// runs, and the memory (X4), conflict (X7) and graph (X9) runs. X13's
	// search runs its engines inside internal/evolve, which takes none.
	// It must be concurrency-safe (internal/obs.Metrics is the standard
	// choice). Probes never change results.
	Probe engine.Probe
	// Observer, if non-nil, receives run-level lifecycle events from
	// every sim task and unit of the suite (internal/obs.RunObserver is
	// the standard choice).
	Observer sim.Observer
}

// Result is an experiment's output: the rendered table plus named metrics
// for programmatic assertions.
type Result struct {
	// Table holds the rows the experiment regenerates.
	Table fmt.Stringer
	// Metrics are headline numbers, e.g. "exponent" or "max_ratio".
	Metrics map[string]float64
	// Verdict is a one-line comparison of prediction vs measurement.
	Verdict string
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	// ID is the index key used by DESIGN.md, EXPERIMENTS.md, bench targets
	// and cmd/bitsweep: T1..T7, F1..F4, X1..X3.
	ID string
	// Title is a short human-readable name.
	Title string
	// Claim states what the paper predicts for this experiment.
	Claim string
	// Run executes the experiment.
	Run func(Options) (*Result, error)
}

// All returns every registered experiment, ordered by ID group
// (T*, F*, X*) as registered.
func All() []Experiment {
	return []Experiment{
		table1LowerBound(),
		table2VoterUpper(),
		table3MinorityBigSample(),
		table4Sequential(),
		table5Prop3(),
		table6JumpBound(),
		table7Drift(),
		figure1Escape(),
		figure2Case1(),
		figure3Case2(),
		figure4Dual(),
		x1Threshold(),
		x2MajorityFails(),
		x3SampleSizeBoundary(),
		x4MemoryAblation(),
		x5MultiOpinion(),
		x6ExponentialTrap(),
		x7ConflictingSources(),
		x8PricePassivity(),
		x9Topology(),
		x10Universality(),
		x11PopulationProtocols(),
		x12FaultRecovery(),
		x13EvolveSearch(),
	}
}

// ByID returns the experiment with the given ID (case-sensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs, sorted.
func IDs() []string {
	exps := All()
	ids := make([]string, 0, len(exps))
	for _, e := range exps {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
