package engine_test

// Distributional equivalence suite: the literal agent engine (both its
// historical byte-per-opinion body and the bit-packed fast path, which
// share a distribution but not a realization) and the count-level engine
// must draw the next one-count from the same distribution — fault-free
// and under every fault family in internal/fault. Each engine produces R
// replica final counts from fixed seeds; pairs are compared with the
// two-sample χ² statistic Σ (aᵢ-bᵢ)²/(aᵢ+bᵢ) (equal sample sizes,
// df = bins-1) at α = 0.01. Seeds are fixed, so the suite is
// deterministic: it either always passes or flags a real distributional
// divergence.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"bitspread/internal/dist"
	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// chiEngine is one engine under comparison.
type chiEngine struct {
	name string
	run  func(cfg engine.Config, g *rng.RNG) (engine.Result, error)
}

func chiEngines() []chiEngine {
	agents := func(opts engine.AgentOptions) func(engine.Config, *rng.RNG) (engine.Result, error) {
		return func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, opts, g)
		}
	}
	return []chiEngine{
		{"count", engine.RunParallel},
		{"literal", agents(engine.AgentOptions{Unpacked: true})},
		{"packed", agents(engine.AgentOptions{})},
		{"packed-sharded", agents(engine.AgentOptions{Shards: 3})},
		{"packed-sharded-ncpu", agents(engine.AgentOptions{Shards: runtime.NumCPU()})},
		{"chunked", agents(engine.AgentOptions{Chunked: true})},
		{"chunked-sharded", agents(engine.AgentOptions{Chunked: true, Shards: 3})},
	}
}

// sampleFinalCounts runs R seeded replicas and returns their final counts.
func sampleFinalCounts(t *testing.T, cfg engine.Config, run func(engine.Config, *rng.RNG) (engine.Result, error), master uint64, reps int) []int64 {
	t.Helper()
	seeds := rng.New(master)
	out := make([]int64, reps)
	for i := range out {
		res, err := run(cfg, rng.New(seeds.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.FinalCount
	}
	return out
}

// chiSquareTwoSample bins the two equally-sized samples over their common
// value range (greedily merging adjacent values until each bin holds at
// least minBin combined observations) and returns the χ² p-value.
func chiSquareTwoSample(t *testing.T, a, b []int64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("sample sizes differ: %d vs %d", len(a), len(b))
	}
	counts := map[int64][2]int64{}
	for _, v := range a {
		c := counts[v]
		c[0]++
		counts[v] = c
	}
	for _, v := range b {
		c := counts[v]
		c[1]++
		counts[v] = c
	}
	values := make([]int64, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

	const minBin = 20
	type bin struct{ a, b int64 }
	var bins []bin
	var cur bin
	for _, v := range values {
		c := counts[v]
		cur.a += c[0]
		cur.b += c[1]
		if cur.a+cur.b >= minBin {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	if cur.a+cur.b > 0 {
		if len(bins) > 0 {
			bins[len(bins)-1].a += cur.a
			bins[len(bins)-1].b += cur.b
		} else {
			bins = append(bins, cur)
		}
	}
	if len(bins) < 2 {
		// Both samples concentrated on one bin: identical by construction.
		return 1
	}
	stat := 0.0
	for _, bn := range bins {
		d := float64(bn.a - bn.b)
		stat += d * d / float64(bn.a+bn.b)
	}
	return dist.ChiSquareTail(stat, len(bins)-1)
}

func TestEngineEquivalenceChiSquare(t *testing.T) {
	if testing.Short() {
		t.Skip("χ² suite needs thousands of replicas")
	}
	const (
		n     = 256
		reps  = 1500
		alpha = 0.01
	)
	// 128-agent chunks put a chunk boundary inside the population, so the
	// chunked engines are compared on their multi-chunk code paths.
	defer engine.SetChunkShiftForTest(7)()
	schedules := map[string]*fault.Schedule{
		"none":         nil,
		"stubborn":     fault.Must(fault.StubbornFor(1, 2, 0.25, 0)),
		"stubborn-one": fault.Must(fault.StubbornFor(1, 2, 0.25, 1)),
		"omission":     fault.Must(fault.OmissionFor(1, 2, 0.5)),
		"source-crash": fault.Must(fault.SourceCrashFor(1, 2)),
		"reset":        fault.Must(fault.ResetAt(1, 0.5, 0)),
		"churn":        fault.Must(fault.ChurnAt(1, 0.5, 0.25)),
	}
	rules := []*protocol.Rule{protocol.Voter(1), protocol.Minority(3)}
	engines := chiEngines()
	for schedName, sched := range schedules {
		for _, r := range rules {
			cfg := engine.Config{
				N: n, Rule: r, Z: 1, X0: n / 2, MaxRounds: 2, Faults: sched,
			}
			samples := make([][]int64, len(engines))
			for i, e := range engines {
				// Distinct master per engine: replicas must be independent
				// across engines for the two-sample statistic.
				master := uint64(1000*i + 17)
				samples[i] = sampleFinalCounts(t, cfg, e.run, master, reps)
			}
			for i := 0; i < len(engines); i++ {
				for j := i + 1; j < len(engines); j++ {
					p := chiSquareTwoSample(t, samples[i], samples[j])
					name := fmt.Sprintf("%s/%v: %s vs %s", schedName, r, engines[i].name, engines[j].name)
					if p >= alpha {
						continue
					}
					// Escalate before flagging: with dozens of fixed-seed
					// comparisons at α = 0.01, isolated sub-α p-values are
					// expected under the null. Re-test the pair on an
					// independent, larger sample; a real divergence fails
					// again (its statistic grows linearly in reps), while a
					// fluke recurs with probability α.
					a := sampleFinalCounts(t, cfg, engines[i].run, uint64(1000*i+291749), 2*reps)
					b := sampleFinalCounts(t, cfg, engines[j].run, uint64(1000*j+291749), 2*reps)
					if p2 := chiSquareTwoSample(t, a, b); p2 < alpha {
						t.Errorf("%s: χ² p-values %.5f and %.5f (retry) < %v — distributions diverge",
							name, p, p2, alpha)
					}
				}
			}
		}
	}
}

// The engines must agree on Activations semantics too: the expected
// sampled-agent count per round is
// (n-1-stubborn)·(1-q), so compare the replica means within a loose band.
func TestEngineEquivalenceActivations(t *testing.T) {
	const n, reps = 256, 300
	sched := fault.Must(fault.OmissionFor(1, 2, 0.5))
	cfg := engine.Config{
		N: n, Rule: protocol.Minority(3), Z: 1, X0: n / 2,
		MaxRounds: 2, Faults: sched,
	}
	means := map[string]float64{}
	for _, e := range chiEngines() {
		var sum int64
		seeds := rng.New(99)
		for i := 0; i < reps; i++ {
			res, err := e.run(cfg, rng.New(seeds.Uint64()))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Activations
		}
		means[e.name] = float64(sum) / reps
	}
	// Two rounds at q = 0.5: expect about 2·(n-1)/2 = n-1 sampled updates.
	want := float64(n - 1)
	for name, m := range means {
		if m < 0.85*want || m > 1.15*want {
			t.Errorf("%s: mean activations %.1f, want ≈ %.1f", name, m, want)
		}
	}
}
