package engine

import (
	"math"
	"testing"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// TestShardsOneMatchesSerial: Shards=1 (and Shards=0) must select the
// serial engine and reproduce its realization byte-for-byte, trajectory
// included.
func TestShardsOneMatchesSerial(t *testing.T) {
	base := Config{N: 96, Rule: protocol.Minority(3), Z: 1, X0: 48, MaxRounds: 200}

	runWithTrace := func(opts AgentOptions, seed uint64) (Result, []int64) {
		p := &Trajectory{}
		cfg := base
		cfg.Probe = p
		res, err := RunAgents(cfg, opts, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res, p.Counts
	}

	serialRes, serialTraj := runWithTrace(AgentOptions{}, 31)
	for _, shards := range []int{0, 1} {
		res, traj := runWithTrace(AgentOptions{Shards: shards}, 31)
		if res != serialRes {
			t.Errorf("Shards=%d: %+v differs from serial %+v", shards, res, serialRes)
		}
		if len(traj) != len(serialTraj) {
			t.Fatalf("trajectory lengths differ: %d vs %d", len(traj), len(serialTraj))
		}
		for i := range traj {
			if traj[i] != serialTraj[i] {
				t.Fatalf("Shards=%d: trajectories diverge at round %d", shards, i+1)
			}
		}
	}
}

// TestShardedDeterministic: the same (seed, shards) pair must yield the
// same Result and trajectory on every run, independent of scheduling.
func TestShardedDeterministic(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		base := Config{N: 200, Rule: protocol.Voter(3), Z: 1, X0: 100, MaxRounds: 150}
		run := func() (Result, []int64) {
			p := &Trajectory{}
			cfg := base
			cfg.Probe = p
			res, err := RunAgents(cfg, AgentOptions{Shards: shards}, rng.New(77))
			if err != nil {
				t.Fatal(err)
			}
			return res, p.Counts
		}
		resA, trajA := run()
		resB, trajB := run()
		if resA != resB {
			t.Errorf("shards=%d: results differ: %+v vs %+v", shards, resA, resB)
		}
		// The packed engine serves this configuration and clamps the shard
		// count to one shard per bitset word.
		if want := packedEffectiveShards(shards, MaxPackedShards(200)); resA.Shards != want {
			t.Errorf("shards=%d: Result.Shards = %d, want %d", shards, resA.Shards, want)
		}
		for i := range trajA {
			if trajA[i] != trajB[i] {
				t.Fatalf("shards=%d: trajectories diverge at round %d", shards, i+1)
			}
		}
	}
}

// TestShardedClampAndConvergence: shard counts above the packed engine's
// ceiling are clamped to one per bitset word, the serial unpacked body
// reports one stream whatever is asked, and the sharded engine still
// detects absorption and the wrong-consensus trap.
func TestShardedClampAndConvergence(t *testing.T) {
	cfg := Config{N: 16, Rule: protocol.Voter(2), Z: 0, X0: 15}
	ures, err := RunAgents(cfg, AgentOptions{Shards: 1000, Unpacked: true}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if ures.Shards != 1 {
		t.Errorf("unpacked Shards = %d, want 1 (the serial literal body)", ures.Shards)
	}
	res, err := RunAgents(cfg, AgentOptions{Shards: 1000}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if want := MaxPackedShards(16); res.Shards != want {
		t.Errorf("packed Shards = %d, want clamp to one per word = %d", res.Shards, want)
	}
	if !res.Converged || res.FinalCount != 0 {
		t.Errorf("sharded Voter did not converge: %+v", res)
	}

	trap := Config{N: 64, Rule: protocol.Majority(5), Z: 1, X0: 1, MaxRounds: 100}
	tres, err := RunAgents(trap, AgentOptions{Shards: 4}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if tres.Converged || !tres.HitWrongConsensus {
		t.Errorf("sharded Majority from all-wrong: %+v", tres)
	}
}

// TestInitialOpinionsFloyd: the Floyd-sampled initial layout must place
// exactly X0 ones with the source holding z, cover the edge cases without
// consuming randomness, and spread the ones uniformly.
func TestInitialOpinionsFloyd(t *testing.T) {
	count := func(ops []uint8) int64 {
		var c int64
		for _, v := range ops {
			c += int64(v)
		}
		return c
	}

	g := rng.New(12)
	for _, tc := range []struct{ n, x0, z int64 }{
		{10, 4, 1}, {10, 1, 1}, {10, 10, 1}, {10, 0, 0}, {10, 9, 0}, {2, 1, 1},
	} {
		ops := initialOpinions(Config{N: tc.n, Z: int(tc.z), X0: tc.x0}, g)
		if int64(ops[0]) != tc.z {
			t.Errorf("n=%d x0=%d: source holds %d, want z=%d", tc.n, tc.x0, ops[0], tc.z)
		}
		if got := count(ops); got != tc.x0 {
			t.Errorf("n=%d: placed %d ones, want %d", tc.n, got, tc.x0)
		}
	}

	// X0 with no free ones to place must not consume the stream.
	a, b := rng.New(9), rng.New(9)
	initialOpinions(Config{N: 50, Z: 1, X0: 1}, a)
	if a.Uint64() != b.Uint64() {
		t.Error("degenerate initial layout consumed randomness")
	}

	// Uniformity: each non-source slot should hold a one with probability
	// onesToPlace/(n-1).
	const (
		n     = 10
		ones  = 3
		reps  = 30000
		pSlot = float64(ones) / (n - 1)
	)
	freq := make([]int, n)
	for i := 0; i < reps; i++ {
		ops := initialOpinions(Config{N: n, Z: 0, X0: ones}, g)
		for j, v := range ops {
			freq[j] += int(v)
		}
	}
	se := math.Sqrt(pSlot * (1 - pSlot) / reps)
	for j := 1; j < n; j++ {
		got := float64(freq[j]) / reps
		if math.Abs(got-pSlot) > 5*se {
			t.Errorf("slot %d holds a one with frequency %v, want %v ± %v", j, got, pSlot, 5*se)
		}
	}
}
