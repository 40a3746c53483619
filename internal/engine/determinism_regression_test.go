package engine_test

// Seed-determinism regression suite: every engine must be a pure function
// of (seed, Config, Shards) — the contract the detrand and maporder
// analyzers (internal/analysis) exist to protect statically. Each engine
// runs twice from the same seed under a fault schedule drawn from every
// family (reset, stubborn, omission, source-crash, churn) and must
// reproduce the identical Result struct and the identical round-by-round
// trajectory. A failure here means nondeterminism crept into an engine
// body — ambient randomness, map iteration, or a data race on the shared
// schedule — and pins down which engine before any χ² suite would notice.

import (
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
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

// trajProbe is a trajectory-capturing Probe; the regression suite runs
// every engine with one attached so determinism is proven for the
// instrumented code path, and its trajectory is checked against the
// Record hook's.
type trajProbe struct {
	counts  []int64
	shards  map[int]bool
	faulted int
}

func (p *trajProbe) RoundDone(round, ones, sampled int64) { p.counts = append(p.counts, ones) }
func (p *trajProbe) FaultApplied(round int64)             { p.faulted++ }
func (p *trajProbe) ShardRound(shard int, sampled int64) {
	if p.shards == nil {
		p.shards = map[int]bool{}
	}
	p.shards[shard] = true
}

// traced runs one engine once with a probe attached, recording the full
// trajectory through the Record hook and cross-checking the probe's view
// of it.
func traced(t *testing.T, run func(engine.Config, *rng.RNG) (engine.Result, error),
	cfg engine.Config, seed uint64) (engine.Result, []int64) {
	t.Helper()
	var traj []int64
	cfg.Record = func(round, count int64) { traj = append(traj, count) }
	probe := &trajProbe{}
	cfg.Probe = probe
	res, err := run(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.counts) != len(traj) {
		t.Fatalf("probe saw %d rounds, Record saw %d", len(probe.counts), len(traj))
	}
	for i := range traj {
		if probe.counts[i] != traj[i] {
			t.Fatalf("probe and Record diverge at point %d: %d vs %d", i, probe.counts[i], traj[i])
		}
	}
	return res, traj
}

// tracedPlain is traced without any probe, for instrumented-vs-plain
// equality checks.
func tracedPlain(t *testing.T, run func(engine.Config, *rng.RNG) (engine.Result, error),
	cfg engine.Config, seed uint64) (engine.Result, []int64) {
	t.Helper()
	var traj []int64
	cfg.Record = func(round, count int64) { traj = append(traj, count) }
	res, err := run(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res, traj
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
		"chunked": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Chunked: true}, g)
		},
		"sharded-chunked": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Chunked: true, Shards: 4}, g)
		},
	}

	// 128-agent chunks put a chunk boundary inside the n=256 population, so
	// the chunked engines replay their multi-chunk code paths.
	defer engine.SetChunkShiftForTest(7)()

	for name, run := range engines {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{1, 0xDEADBEEF, 1 << 40} {
				res1, traj1 := traced(t, run, base, seed)
				res2, traj2 := traced(t, run, base, seed)
				if res1 != res2 {
					t.Fatalf("seed %#x: results differ between identical runs:\n  first:  %+v\n  second: %+v",
						seed, res1, res2)
				}
				if len(traj1) != len(traj2) {
					t.Fatalf("seed %#x: trajectory lengths differ: %d vs %d", seed, len(traj1), len(traj2))
				}
				for i := range traj1 {
					if traj1[i] != traj2[i] {
						t.Fatalf("seed %#x: trajectories diverge at round %d: %d vs %d",
							seed, i+1, traj1[i], traj2[i])
					}
				}
				if res1.Rounds == 0 || len(traj1) == 0 {
					t.Fatalf("seed %#x: degenerate run (rounds=%d, trajectory=%d points) proves nothing",
						seed, res1.Rounds, len(traj1))
				}
				// A probe must be a pure observer: the instrumented run and
				// the probe-free run must coincide byte for byte.
				resPlain, trajPlain := tracedPlain(t, run, base, seed)
				if res1 != resPlain {
					t.Fatalf("seed %#x: probe changed the Result:\n  probed: %+v\n  plain:  %+v",
						seed, res1, resPlain)
				}
				for i := range traj1 {
					if traj1[i] != trajPlain[i] {
						t.Fatalf("seed %#x: probe changed the trajectory at round %d: %d vs %d",
							seed, i+1, traj1[i], trajPlain[i])
					}
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
	same := len(trajA) == len(trajB)
	if same {
		for i := range trajA {
			if trajA[i] != trajB[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical trajectories; the engine is not consuming its seed")
	}
}
