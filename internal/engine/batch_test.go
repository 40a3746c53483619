package engine

import (
	"testing"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// TestStepCountBatchMatchesStepCount: with the same generators, the batched
// step must reproduce StepCount exactly — value and stream consumption —
// across rules and sample sizes, including the cached (revisited-count)
// path. So must StepConflict with the source as its only pinned agent.
func TestStepCountBatchMatchesStepCount(t *testing.T) {
	const n, z = 500, 1
	bigEll := protocol.SqrtNLogN(1).Of(n)
	for _, r := range []*protocol.Rule{
		protocol.Voter(1), protocol.Minority(3), protocol.Minority(bigEll), protocol.TwoChoice(),
	} {
		cache := protocol.NewAdoptCache(r, n)
		const reps = 64
		xs := make([]int64, reps)
		gs := make([]*rng.RNG, reps)
		ref := make([]*rng.RNG, reps)
		conflict := make([]*rng.RNG, reps)
		for i := range xs {
			xs[i] = int64(1 + i*7%(n-1))
			gs[i] = rng.New(uint64(1000 + i))
			ref[i] = rng.New(uint64(1000 + i))
			conflict[i] = rng.New(uint64(1000 + i))
		}
		want := make([]int64, reps)
		for i := range want {
			want[i] = StepCount(r, n, z, xs[i], ref[i])
			if got := StepConflict(r, n, z, 1-z, xs[i], conflict[i]); got != want[i] {
				t.Errorf("%v replica %d: StepConflict %d vs StepCount %d", r, i, got, want[i])
			}
		}
		StepCountBatch(cache, z, xs, gs)
		for i := range xs {
			if xs[i] != want[i] {
				t.Errorf("%v replica %d: batch %d vs StepCount %d", r, i, xs[i], want[i])
			}
			next := ref[i].Uint64()
			if gs[i].Uint64() != next {
				t.Errorf("%v replica %d: batch stream consumption diverged", r, i)
			}
			if conflict[i].Uint64() != next {
				t.Errorf("%v replica %d: StepConflict stream consumption diverged", r, i)
			}
		}
		if hits, misses := cache.Stats(); hits+misses != reps || misses == 0 {
			t.Errorf("%v: cache accounting hits=%d misses=%d, want %d lookups", r, hits, misses, reps)
		}
	}
}

// TestRunParallelReplicasMatchesRunParallel: every replica of the batched
// engine must equal the standalone RunParallel run with the same seed,
// field for field.
func TestRunParallelReplicasMatchesRunParallel(t *testing.T) {
	for _, r := range []*protocol.Rule{protocol.Voter(1), protocol.Minority(3)} {
		cfg := Config{N: 256, Rule: r, Z: 1, X0: WorstCaseInit(256, 1), MaxRounds: 4000}
		seeds := make([]uint64, 32)
		master := rng.New(99)
		for i := range seeds {
			seeds[i] = master.Uint64()
		}
		batch, err := RunParallelReplicas(cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			solo, err := RunParallel(cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if batch[i] != solo {
				t.Errorf("%v replica %d: batch %+v vs solo %+v", r, i, batch[i], solo)
			}
		}
	}
}

// TestRunParallelReplicasEdgeCases: immediate convergence and invalid
// configs.
func TestRunParallelReplicasEdgeCases(t *testing.T) {
	done := Config{N: 10, Rule: protocol.Voter(1), Z: 1, X0: 10}
	res, err := RunParallelReplicas(done, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Converged || r.Rounds != 0 {
			t.Errorf("replica %d: want immediate convergence, got %+v", i, r)
		}
	}

	if _, err := RunParallelReplicas(Config{N: 1, Rule: protocol.Voter(1), Z: 1, X0: 1}, []uint64{1}); err == nil {
		t.Error("invalid config accepted")
	}

	if res, err := RunParallelReplicas(done, nil); err != nil || len(res) != 0 {
		t.Errorf("empty seed list: res=%v err=%v", res, err)
	}
}
