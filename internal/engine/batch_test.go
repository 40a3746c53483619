package engine

import (
	"math"
	"testing"

	"bitspread/internal/dist"
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

// TestRunParallelReplicasEdgeCases: immediate convergence, Record
// rejection, and invalid configs.
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

	rec := done
	rec.Record = func(_, _ int64) {}
	if _, err := RunParallelReplicas(rec, []uint64{1}); err == nil {
		t.Error("Record hook accepted")
	}

	if _, err := RunParallelReplicas(Config{N: 1, Rule: protocol.Voter(1), Z: 1, X0: 1}, []uint64{1}); err == nil {
		t.Error("invalid config accepted")
	}

	if res, err := RunParallelReplicas(done, nil); err != nil || len(res) != 0 {
		t.Errorf("empty seed list: res=%v err=%v", res, err)
	}
}

// TestStepCountBatchChiSquare cross-validates the batched step against the
// exact one-round distribution: X' = z + Bin(m₁, P₁) + Bin(m₀, P₀),
// whose pmf is computed by direct convolution. A Pearson test on many
// batched samples must not reject.
func TestStepCountBatchChiSquare(t *testing.T) {
	const (
		n    = 40
		x0   = 15
		z    = 1
		reps = 20000
	)
	r := protocol.Minority(3)
	p := float64(x0) / n
	p1, p0 := r.AdoptProb(1, p), r.AdoptProb(0, p)
	m1, m0 := int64(x0-z), int64(n-x0-(1-z))

	binPmf := func(m int64, q float64) []float64 {
		pmf := make([]float64, m+1)
		for k := int64(0); k <= m; k++ {
			logP := dist.LogChoose(m, k)
			if q > 0 {
				logP += float64(k) * math.Log(q)
			} else if k > 0 {
				continue
			}
			if q < 1 {
				logP += float64(m-k) * math.Log1p(-q)
			} else if k < m {
				continue
			}
			pmf[k] = math.Exp(logP)
		}
		return pmf
	}
	pmf1, pmf0 := binPmf(m1, p1), binPmf(m0, p0)
	expected := make([]float64, n+1)
	for a := range pmf1 {
		for b := range pmf0 {
			expected[z+a+b] += pmf1[a] * pmf0[b] * reps
		}
	}

	cache := protocol.NewAdoptCache(r, n)
	xs := make([]int64, reps)
	gs := make([]*rng.RNG, reps)
	master := rng.New(777)
	for i := range xs {
		xs[i] = x0
		gs[i] = rng.New(master.Uint64())
	}
	StepCountBatch(cache, z, xs, gs)

	observed := make([]int64, n+1)
	for _, x := range xs {
		if x < 0 || x > n {
			t.Fatalf("count %d out of range", x)
		}
		observed[x]++
	}
	stat, dof, err := dist.ChiSquareStat(observed, expected, 5)
	if err != nil {
		t.Fatal(err)
	}
	if pval := dist.ChiSquareTail(stat, dof); pval < 1e-3 {
		t.Errorf("chi-square rejects the batched step: stat=%v dof=%d p=%v", stat, dof, pval)
	}
}
