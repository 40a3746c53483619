package engine_test

// Guards for the bit-packed agent-engine fast path. The packed body
// samples from the same per-round distribution as the historical
// byte-per-opinion body but not from the same realization (it draws each
// agent's next opinion from its Eq. 4 adoption law, 64 agents at a time,
// instead of sampling indices), so the contract tested
// here is determinism, absorption/semantic agreement, and fault-handling
// behavior; the law of whole runs of each is checked against the exact
// chain by exact_law_test.go.
// The suite lives in the external test package so it can exercise real
// fault schedules (internal/fault implements engine.Perturber).

import (
	"fmt"
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func runAgentsTraced(t *testing.T, cfg engine.Config, opts engine.AgentOptions, seed uint64) (engine.Result, []int64) {
	t.Helper()
	p := &engine.Trajectory{}
	cfg.Probe = p
	res, err := engine.RunAgents(cfg, opts, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res, p.Counts
}

// The serial packed realization is frozen: these trajectories were
// captured from the word-parallel round kernel, and shards≤1 must stay
// byte-identical to them. Covers a deterministic rule, a noisy rule under
// omission faults, and an odd-n Voter run whose final word is partial.
func TestPackedSerialGolden(t *testing.T) {
	sched := fault.Must(fault.OmissionFor(3, 2, 0.5))
	cases := []struct {
		name        string
		cfg         engine.Config
		seed        uint64
		final, acts int64
		traj        []int64
	}{
		{
			"det",
			engine.Config{N: 300, Rule: protocol.Minority(3), Z: 1, X0: 150, MaxRounds: 16},
			42, 150, 4784,
			[]int64{151, 148, 138, 158, 141, 150, 151, 168, 139, 147, 160, 164, 153, 153, 157, 150},
		},
		{
			"noisy",
			engine.Config{N: 300, Rule: protocol.WithNoise(protocol.Minority(3), 0.1), Z: 1, X0: 150, MaxRounds: 16, Faults: sched},
			42, 145, 4500,
			[]int64{165, 156, 162, 160, 158, 154, 155, 141, 153, 134, 156, 149, 148, 142, 154, 145},
		},
		{
			"voter",
			engine.Config{N: 257, Rule: protocol.Voter(1), Z: 1, X0: 128, MaxRounds: 16},
			7, 156, 4096,
			[]int64{133, 136, 141, 138, 138, 126, 123, 123, 131, 136, 133, 152, 157, 157, 164, 156},
		},
	}
	for _, tc := range cases {
		for _, shards := range []int{0, 1} {
			res, traj := runAgentsTraced(t, tc.cfg, engine.AgentOptions{Shards: shards}, tc.seed)
			if res.FinalCount != tc.final || res.Activations != tc.acts || res.Rounds != 16 {
				t.Errorf("%s/shards=%d: got final=%d rounds=%d activations=%d, want final=%d rounds=16 activations=%d",
					tc.name, shards, res.FinalCount, res.Rounds, res.Activations, tc.final, tc.acts)
			}
			if !reflect.DeepEqual(traj, tc.traj) {
				t.Errorf("%s/shards=%d: trajectory diverged from frozen serial realization\ngot  %v\nwant %v",
					tc.name, shards, traj, tc.traj)
			}
		}
	}
}

// The packed engine is deterministic in (seed, Config, Shards): same
// inputs, same Result and same trajectory — including under every fault
// family, whose boundary draws interleave with the packed stream.
func TestPackedDeterministic(t *testing.T) {
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
				N: 200, Rule: protocol.WithNoise(protocol.Minority(3), 0.1),
				Z: 1, X0: 100, MaxRounds: 12, Faults: s,
			}
			label := fmt.Sprintf("%s/shards=%d", name, shards)
			a, trajA := runAgentsTraced(t, cfg, engine.AgentOptions{Shards: shards}, 7)
			b, trajB := runAgentsTraced(t, cfg, engine.AgentOptions{Shards: shards}, 7)
			if a != b {
				t.Errorf("%s: same seed diverged\nfirst  %+v\nsecond %+v", label, a, b)
			}
			if !reflect.DeepEqual(trajA, trajB) {
				t.Errorf("%s: trajectories diverged\nfirst  %v\nsecond %v", label, trajA, trajB)
			}
		}
	}
}

// Shard counts partition the agent range but not the dynamics: a packed
// sharded run must absorb at the same fixed points as the serial one and
// count every one-bit exactly once in FinalCount (the per-word merge at
// shard boundaries is the delicate part).
func TestPackedShardedCountsConsistent(t *testing.T) {
	for _, n := range []int64{17, 64, 127, 500} {
		for _, shards := range []int{2, 3, 4, 7} {
			cfg := engine.Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: n / 2, MaxRounds: 4000}
			p := &engine.Trajectory{}
			cfg.Probe = p
			res, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: shards}, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			for r, c := range p.Counts {
				if c < 1 || c > n {
					t.Fatalf("n=%d shards=%d: round %d count %d out of [1, %d]", n, shards, r+1, c, n)
				}
			}
			if !res.Converged {
				t.Errorf("n=%d shards=%d: Voter run did not absorb: %+v", n, shards, res)
			}
			if res.FinalCount != n {
				t.Errorf("n=%d shards=%d: absorbed at %d, want %d", n, shards, res.FinalCount, n)
			}
		}
	}
}

// Voter runs, serial and sharded, whose populations end mid-word (511,
// 513, 1025) or exactly on a word boundary (512) must absorb at the true
// fixed point with every one-bit counted exactly once; n = 1025 at 3
// shards takes packedWordBounds' line-aligned branch. The name dates from
// the chunked bitset layout, which split these populations into 512-agent
// chunks; the bitset is one flat slice now.
func TestChunkedCountsConsistent(t *testing.T) {
	for _, n := range []int64{511, 512, 513, 1025} {
		for _, shards := range []int{1, 3, 7} {
			cfg := engine.Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: n / 2, MaxRounds: 20000}
			p := &engine.Trajectory{}
			cfg.Probe = p
			res, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: shards}, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			for r, c := range p.Counts {
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

// The packed engines must skip non-sampling agents in Activations: with
// every update omitted, no agent samples at all and the count freezes.
func TestPackedActivationsUnderTotalOmission(t *testing.T) {
	cfg := engine.Config{
		N: 130, Rule: protocol.Voter(1), Z: 1, X0: 65,
		MaxRounds: 3, Faults: fault.Must(fault.OmissionFor(1, 3, 1)),
	}
	for _, shards := range []int{1, 4} {
		res, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: shards}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if res.Activations != 0 {
			t.Errorf("shards=%d: %d activations under total omission, want 0", shards, res.Activations)
		}
		if res.FinalCount != 65 {
			t.Errorf("shards=%d: count moved under total omission: %d", shards, res.FinalCount)
		}
	}
}

// Stubborn-pinned agents keep their boundary opinion verbatim: pinning
// every non-source agent freezes the non-source population exactly.
func TestPackedStubbornPinsOpinions(t *testing.T) {
	cfg := engine.Config{
		N: 96, Rule: protocol.Voter(1), Z: 1, X0: 48,
		MaxRounds: 5, Faults: fault.Must(fault.StubbornFor(1, 5, 1, 1)),
	}
	for _, shards := range []int{1, 4} {
		res, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: shards}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		// StubbornFor(…, 1, 1) pins all n-1 non-source agents at opinion 1
		// plus the source's own 1: the count must sit at n for the window.
		if res.FinalCount != cfg.N {
			t.Errorf("shards=%d: fully pinned population drifted to %d, want %d", shards, res.FinalCount, cfg.N)
		}
		if res.Activations != 0 {
			t.Errorf("shards=%d: %d activations with all agents pinned, want 0", shards, res.Activations)
		}
	}
}
