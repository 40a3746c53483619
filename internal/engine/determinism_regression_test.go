package engine_test

// Seed-determinism regression suite: every engine must be a pure function
// of (seed, Config, Shards) — the contract the detrand and maporder
// analyzers (internal/analysis) exist to protect statically. Each engine
// runs twice from the same seed under a fault schedule drawn from every
// family (reset, stubborn, omission, source-crash, churn) and must
// reproduce the identical Result struct and the identical probe stream;
// RunConflict and the graph and memory engines get the same check without
// faults. A failure here means nondeterminism crept into an engine body —
// ambient randomness, map iteration, or a data race on the shared
// schedule — and pins down which engine before the exact-law suite would
// notice.

import (
	"errors"
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/graph"
	"bitspread/internal/memory"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// regressionSchedule touches every fault family so the replayed stream
// includes each perturbation code path.
func regressionSchedule(t *testing.T) *fault.Schedule {
	t.Helper()
	s, err := fault.New(
		fault.ResetAt(2, 0.5, 0),
		fault.StubbornFor(3, 2, 0.25, 1),
		fault.OmissionFor(6, 2, 0.5),
		fault.SourceCrashFor(9, 2),
		fault.ChurnAt(12, 0.25, 0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// traced runs one engine once with a Trajectory probe attached, so
// determinism is proven for the instrumented code path.
func traced(t *testing.T, run func(engine.Config, *rng.RNG) (engine.Result, error),
	cfg engine.Config, seed uint64) (engine.Result, *engine.Trajectory) {
	t.Helper()
	p := &engine.Trajectory{}
	cfg.Probe = p
	res, err := run(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res, p
}

// sameStream fails t unless two runs fed their probes the same events.
func sameStream(t *testing.T, seed uint64, a, b *engine.Trajectory) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed %#x: probe streams differ between identical runs:\n  first:  %+v\n  second: %+v", seed, a, b)
	}
}

func TestSeedDeterminismUnderFaults(t *testing.T) {
	sched := regressionSchedule(t)
	base := engine.Config{
		N:         256,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        96,
		MaxRounds: 48, // determinism, not convergence, is under test
		Faults:    sched,
	}

	engines := map[string]func(engine.Config, *rng.RNG) (engine.Result, error){
		"count": engine.RunParallel,
		"sequential": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunSequential(cfg, g)
		},
		"literal": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Unpacked: true}, g)
		},
		"packed": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, g)
		},
		"sharded-packed": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Shards: 4}, g)
		},
	}

	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 0xDEADBEEF, 1 << 40} {
				res1, p1 := traced(t, run, base, seed)
				res2, p2 := traced(t, run, base, seed)
				if res1 != res2 {
					t.Fatalf("seed %#x: results differ between identical runs:\n  first:  %+v\n  second: %+v",
						seed, res1, res2)
				}
				sameStream(t, seed, p1, p2)
				if res1.Rounds == 0 || len(p1.Counts) == 0 {
					t.Fatalf("seed %#x: degenerate run (rounds=%d, trajectory=%d points) proves nothing",
						seed, res1.Rounds, len(p1.Counts))
				}
				// A probe must be a pure observer: the instrumented run and
				// a run with no probe at all must coincide byte for byte.
				plain, err := run(base, rng.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if res1 != plain {
					t.Fatalf("seed %#x: probe changed the Result:\n  probed: %+v\n  plain:  %+v",
						seed, res1, plain)
				}
			}
		})
	}
}

// TestSeedDeterminismDistinguishesSeeds guards the guard: if an engine
// ignored its seed (or a future refactor hard-coded one), the identical-
// replay test above would pass vacuously. Distinct seeds must produce
// distinct trajectories for at least one engine/seed pair.
func TestSeedDeterminismDistinguishesSeeds(t *testing.T) {
	base := engine.Config{
		N:         256,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        96,
		MaxRounds: 48,
		Faults:    regressionSchedule(t),
	}
	_, trajA := traced(t, engine.RunParallel, base, 7)
	_, trajB := traced(t, engine.RunParallel, base, 8)
	if reflect.DeepEqual(trajA.Counts, trajB.Counts) {
		t.Fatal("seeds 7 and 8 produced identical trajectories; the engine is not consuming its seed")
	}
}

// TestSideEngineSeedDeterminism extends the regression to the engines
// outside the round driver that report through a Probe: RunConflict,
// graph.Run and memory.Run. Two probed runs from one seed must give the
// same Result and the same RoundDone stream, a run with no probe the
// same Result, and two seeds different streams, so the check cannot pass
// vacuously. Every round reports the agents that run the rule as sampled.
func TestSideEngineSeedDeterminism(t *testing.T) {
	ring, err := graph.NewRing(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := memory.NewAccumulatorMinority(3, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]struct {
		sampled int64
		run     func(p engine.Probe, seed uint64) (any, error)
	}{
		"conflict": {256 - 3 - 1, func(p engine.Probe, seed uint64) (any, error) {
			return engine.RunConflict(engine.ConflictConfig{
				N: 256, Rule: protocol.Voter(3), Sources1: 3, Sources0: 1, X0: 128, Rounds: 48, Probe: p,
			}, rng.New(seed))
		}},
		"graph": {64 - 1, func(p engine.Probe, seed uint64) (any, error) {
			return graph.Run(graph.Config{
				Topology: ring, Rule: protocol.Voter(1), Z: 1, InitialOnes: 32, MaxRounds: 48, Probe: p,
			}, rng.New(seed))
		}},
		"memory": {256 - 1, func(p engine.Probe, seed uint64) (any, error) {
			return memory.Run(memory.Config{
				N: 256, Protocol: acc, Z: 1, X0: 128, AdversarialMemory: true, MaxRounds: 48, Probe: p,
			}, rng.New(seed))
		}},
	}
	for name, e := range engines {
		run := e.run
		t.Run(name, func(t *testing.T) {
			var streams []*engine.Trajectory
			for _, seed := range []uint64{1, 0xDEADBEEF} {
				p1, p2 := &engine.Trajectory{}, &engine.Trajectory{}
				res1, err1 := run(p1, seed)
				res2, err2 := run(p2, seed)
				plain, err3 := run(nil, seed)
				if err := errors.Join(err1, err2, err3); err != nil {
					t.Fatal(err)
				}
				if res1 != res2 {
					t.Fatalf("seed %#x: results differ between identical runs:\n  first:  %+v\n  second: %+v",
						seed, res1, res2)
				}
				sameStream(t, seed, p1, p2)
				if len(p1.Counts) == 0 {
					t.Fatalf("seed %#x: the probe saw no round; the run proves nothing", seed)
				}
				for i, s := range p1.Sampled {
					if s != e.sampled {
						t.Fatalf("seed %#x: round %d reports %d sampled agents, want %d", seed, p1.Rounds[i], s, e.sampled)
					}
				}
				if res1 != plain {
					t.Fatalf("seed %#x: probe changed the Result:\n  probed: %+v\n  plain:  %+v", seed, res1, plain)
				}
				streams = append(streams, p1)
			}
			if reflect.DeepEqual(streams[0], streams[1]) {
				t.Fatal("two seeds produced identical streams; the engine is not consuming its seed")
			}
		})
	}
}
