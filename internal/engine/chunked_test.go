package engine_test

// Guards for the chunked bitset layout. Chunks hold 2³² agents by
// default, so these tests shrink the chunk capacity (SetChunkShiftForTest)
// to force genuinely multi-chunk runs at testing-sized n; the
// distributional agreement with the other engines is pinned by the χ²
// suites in equivalence_chi_test.go and onestep_chi_test.go.

import (
	"fmt"
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// The chunked engine is deterministic in (seed, Config, Shards) across
// every fault family, serial and sharded, with chunk boundaries inside
// the population.
func TestChunkedDeterministic(t *testing.T) {
	defer engine.SetChunkShiftForTest(9)() // 512-agent chunks
	schedules := map[string]*fault.Schedule{
		"none":         nil,
		"reset":        fault.Must(fault.ResetAt(2, 0.5, 0)),
		"churn":        fault.Must(fault.ChurnAt(2, 0.5, 0.25)),
		"stubborn":     fault.Must(fault.StubbornFor(2, 3, 0.25, 0)),
		"omission":     fault.Must(fault.OmissionFor(2, 3, 0.5)),
		"source-crash": fault.Must(fault.SourceCrashFor(2, 2)),
	}
	for name, s := range schedules {
		for _, shards := range []int{1, 4} {
			cfg := engine.Config{
				N: 1500, Rule: protocol.WithNoise(protocol.Minority(3), 0.1),
				Z: 1, X0: 750, MaxRounds: 10, Faults: s,
			}
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			opts := engine.AgentOptions{Chunked: true, Shards: shards}
			a, trajA := runAgentsTraced(t, cfg, opts, 7)
			b, trajB := runAgentsTraced(t, cfg, opts, 7)
			if a != b {
				t.Errorf("%s: same seed diverged\nfirst  %+v\nsecond %+v", label, a, b)
			}
			if !reflect.DeepEqual(trajA, trajB) {
				t.Errorf("%s: trajectories diverged\nfirst  %v\nsecond %v", label, trajA, trajB)
			}
			if want := engine.MaxPackedShards(1500); shards <= want && a.Shards != shards {
				t.Errorf("%s: Result.Shards = %d, want %d", label, a.Shards, shards)
			}
		}
	}
}

// Multi-chunk Voter runs must absorb at the true fixed point with every
// one-bit counted exactly once, across chunk-straddling shard layouts and
// populations that end mid-word and mid-chunk.
func TestChunkedCountsConsistent(t *testing.T) {
	defer engine.SetChunkShiftForTest(9)()
	for _, n := range []int64{511, 512, 513, 1025} {
		for _, shards := range []int{1, 3, 7} {
			cfg := engine.Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: n / 2, MaxRounds: 20000}
			var traj []int64
			cfg.Record = func(round, count int64) { traj = append(traj, count) }
			res, err := engine.RunAgents(cfg, engine.AgentOptions{Chunked: true, Shards: shards}, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			for r, c := range traj {
				if c < 1 || c > n {
					t.Fatalf("n=%d shards=%d: round %d count %d out of [1, %d]", n, shards, r+1, c, n)
				}
			}
			if !res.Converged || res.FinalCount != n {
				t.Errorf("n=%d shards=%d: Voter run did not absorb at n: %+v", n, shards, res)
			}
		}
	}
}

// The chunked layout must honor omission and stubborn faults exactly like
// the packed one: total omission freezes the count with zero
// activations, and a fully pinned population cannot drift.
func TestChunkedFaultSemantics(t *testing.T) {
	defer engine.SetChunkShiftForTest(9)()
	omit := engine.Config{
		N: 1300, Rule: protocol.Voter(1), Z: 1, X0: 650,
		MaxRounds: 3, Faults: fault.Must(fault.OmissionFor(1, 3, 1)),
	}
	for _, shards := range []int{1, 4} {
		res, err := engine.RunAgents(omit, engine.AgentOptions{Chunked: true, Shards: shards}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Activations != 0 || res.FinalCount != 650 {
			t.Errorf("shards=%d: total omission gave activations=%d final=%d, want 0 and 650",
				shards, res.Activations, res.FinalCount)
		}
	}

	pinned := engine.Config{
		N: 1100, Rule: protocol.Voter(1), Z: 1, X0: 550,
		MaxRounds: 5, Faults: fault.Must(fault.StubbornFor(1, 5, 1, 1)),
	}
	for _, shards := range []int{1, 4} {
		res, err := engine.RunAgents(pinned, engine.AgentOptions{Chunked: true, Shards: shards}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalCount != pinned.N || res.Activations != 0 {
			t.Errorf("shards=%d: fully pinned population drifted: %+v", shards, res)
		}
	}
}

// Chunks change addressing only: a multi-chunk run reproduces the
// one-chunk realization exactly, serial and sharded, under every fault
// family.
func TestChunkedMatchesPackedRealization(t *testing.T) {
	defer engine.SetChunkShiftForTest(7)() // 128-agent chunks
	schedules := map[string]*fault.Schedule{
		"none":         nil,
		"reset":        fault.Must(fault.ResetAt(2, 0.5, 0)),
		"stubborn":     fault.Must(fault.StubbornFor(2, 3, 0.25, 0)),
		"omission":     fault.Must(fault.OmissionFor(2, 3, 0.5)),
		"source-crash": fault.Must(fault.SourceCrashFor(2, 2)),
	}
	for name, s := range schedules {
		for _, shards := range []int{1, 3} {
			cfg := engine.Config{
				N: 1000, Rule: protocol.WithNoise(protocol.Minority(3), 0.1),
				Z: 1, X0: 500, MaxRounds: 10, Faults: s,
			}
			a, trajA := runAgentsTraced(t, cfg, engine.AgentOptions{Shards: shards}, 5)
			b, trajB := runAgentsTraced(t, cfg, engine.AgentOptions{Chunked: true, Shards: shards}, 5)
			if a != b || !reflect.DeepEqual(trajA, trajB) {
				t.Errorf("%s/shards=%d: chunked run diverged from packed\npacked  %+v %v\nchunked %+v %v",
					name, shards, a, trajA, b, trajB)
			}
		}
	}
}

// Two runs with the Chunked flag from one seed agree realization for
// realization.
func TestChunkedFlagMatchesAutomaticRouting(t *testing.T) {
	defer engine.SetChunkShiftForTest(9)()
	cfg := engine.Config{N: 1024, Rule: protocol.Minority(3), Z: 1, X0: 512, MaxRounds: 8}
	a, trajA := runAgentsTraced(t, cfg, engine.AgentOptions{Chunked: true}, 21)
	b, trajB := runAgentsTraced(t, cfg, engine.AgentOptions{Chunked: true}, 21)
	if a != b || !reflect.DeepEqual(trajA, trajB) {
		t.Fatalf("chunked flag runs diverged: %+v vs %+v", a, b)
	}
}
