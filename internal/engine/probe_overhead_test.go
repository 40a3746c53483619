package engine_test

// Guards for the probe path. Overhead: an uninstrumented engine must not
// allocate on account of the probe plumbing, and attaching the standard
// atomic obs probe, alone or fanned out by engine.Probes, must not add
// per-round allocations either — sweeps run millions of rounds, so even
// one escape per round would swamp the allocator. Contract: one run calls
// its probe from one goroutine, and Probes forwards every event in order.

import (
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestProbePathAllocationFree(t *testing.T) {
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 64,
	}
	g := rng.New(5)
	plain := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(cfg, g); err != nil {
			t.Fatal(err)
		}
	})

	probed := cfg
	probed.Probe = obs.NewMetrics(obs.NewRegistry())
	g2 := rng.New(5)
	instrumented := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(probed, g2); err != nil {
			t.Fatal(err)
		}
	})

	fan := cfg
	fan.Probe = engine.Probes(obs.NewMetrics(obs.NewRegistry()), obs.NewMetrics(obs.NewRegistry()))
	g3 := rng.New(5)
	fanned := testing.AllocsPerRun(20, func() {
		if _, err := engine.RunParallel(fan, g3); err != nil {
			t.Fatal(err)
		}
	})

	// The runs execute up to 64 rounds each; a single per-round escape in
	// the probe path would show up as tens of extra allocations.
	if instrumented > plain {
		t.Errorf("attaching a probe added allocations: plain=%.1f instrumented=%.1f per run",
			plain, instrumented)
	}
	if fanned > plain {
		t.Errorf("fanning out through engine.Probes added allocations: plain=%.1f fanned=%.1f per run",
			plain, fanned)
	}
}

// The packed sharded path emits ShardRound events from the coordinator
// after the per-round barrier; the emission sites must stay nil-guarded
// and allocation-free, like every probe call site.
func TestShardRoundProbeAllocationFree(t *testing.T) {
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 64,
	}
	opts := engine.AgentOptions{Shards: 4}
	g := rng.New(5)
	plain := testing.AllocsPerRun(10, func() {
		if _, err := engine.RunAgents(cfg, opts, g); err != nil {
			t.Fatal(err)
		}
	})

	probed := cfg
	probed.Probe = obs.NewMetrics(obs.NewRegistry())
	g2 := rng.New(5)
	instrumented := testing.AllocsPerRun(10, func() {
		if _, err := engine.RunAgents(probed, opts, g2); err != nil {
			t.Fatal(err)
		}
	})

	if instrumented > plain {
		t.Errorf("ShardRound probe path added allocations: plain=%.1f instrumented=%.1f per run",
			plain, instrumented)
	}
}

// TestProbeSingleGoroutine pins the Probe contract that one run calls its
// probe from one goroutine, sharded rounds and replica batches included:
// Trajectory writes unlocked fields, so under -race (make race-packed) a
// shard goroutine that called the probe would fail the test.
func TestProbeSingleGoroutine(t *testing.T) {
	p := &engine.Trajectory{}
	cfg := engine.Config{
		N:         1 << 12,
		Rule:      protocol.Voter(3),
		Z:         1,
		X0:        1 << 11,
		MaxRounds: 32,
		Faults:    fault.Must(fault.ChurnAt(3, 0.5, 0.5)),
		Probe:     p,
	}
	if _, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: 4}, rng.New(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.RunAgentsReplicas(cfg, engine.AgentOptions{Shards: 2}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(p.Counts) == 0 || p.ShardRounds == 0 || p.Faults == 0 {
		t.Fatalf("probe saw %d rounds, %d shard rounds, %d fault rounds; the test proves nothing",
			len(p.Counts), p.ShardRounds, p.Faults)
	}
}

// TestProbes: the fan drops nil probes, returns a lone probe itself, and
// forwards every event to each probe.
func TestProbes(t *testing.T) {
	if p := engine.Probes(); p != nil {
		t.Errorf("Probes() = %v, want nil", p)
	}
	if p := engine.Probes(nil, nil); p != nil {
		t.Errorf("Probes(nil, nil) = %v, want nil", p)
	}
	a, b := &engine.Trajectory{}, &engine.Trajectory{}
	if p := engine.Probes(nil, a); p != engine.Probe(a) {
		t.Errorf("Probes(nil, a) = %v, want a itself", p)
	}
	fan := engine.Probes(a, nil, b)
	fan.FaultApplied(1)
	fan.RoundDone(1, 7, 9)
	fan.ShardRound(0, 4)
	want := &engine.Trajectory{Rounds: []int64{1}, Counts: []int64{7}, Sampled: []int64{9}, Faults: 1, ShardRounds: 1}
	if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
		t.Errorf("fan delivered a=%+v b=%+v, want both %+v", a, b, want)
	}
}
