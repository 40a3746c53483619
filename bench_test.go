// Benchmark harness: one target per table and figure of the reproduction
// index (DESIGN.md §4), plus micro-benchmarks and ablations for the hot
// paths. Each experiment benchmark executes the experiment and reports
// its headline metrics through b.ReportMetric; run with -v to also see
// the rendered tables (they are logged once per target).
//
// By default the experiments run at their Quick sizes so `go test
// -bench=.` finishes in minutes; set BITSPREAD_FULL=1 for the full-size
// sweeps reported in EXPERIMENTS.md.
package bitspread_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"bitspread"
)

// benchOpts returns the sizing used by the experiment benchmarks.
func benchOpts() bitspread.ExperimentOptions {
	return bitspread.ExperimentOptions{
		Seed:  2024,
		Quick: os.Getenv("BITSPREAD_FULL") == "",
	}
}

// benchExperiment runs one experiment per iteration and reports its
// metrics; the table is logged on the first iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bitspread.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("%s — %s\n%s\nverdict: %s", e.ID, e.Title, res.Table.String(), res.Verdict)
			for k, v := range res.Metrics {
				b.ReportMetric(v, k)
			}
		}
	}
}

// Experiment benchmarks — the reproduction of every table and figure.

func BenchmarkTable1LowerBound(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkTable2VoterUpper(b *testing.B)        { benchExperiment(b, "T2") }
func BenchmarkTable3MinorityBigSample(b *testing.B) { benchExperiment(b, "T3") }
func BenchmarkTable4Sequential(b *testing.B)        { benchExperiment(b, "T4") }
func BenchmarkTable5Prop3(b *testing.B)             { benchExperiment(b, "T5") }
func BenchmarkTable6JumpBound(b *testing.B)         { benchExperiment(b, "T6") }
func BenchmarkTable7Drift(b *testing.B)             { benchExperiment(b, "T7") }
func BenchmarkFigure1Escape(b *testing.B)           { benchExperiment(b, "F1") }
func BenchmarkFigure2Case1(b *testing.B)            { benchExperiment(b, "F2") }
func BenchmarkFigure3Case2(b *testing.B)            { benchExperiment(b, "F3") }
func BenchmarkFigure4Dual(b *testing.B)             { benchExperiment(b, "F4") }
func BenchmarkX1Threshold(b *testing.B)             { benchExperiment(b, "X1") }
func BenchmarkX2MajorityFails(b *testing.B)         { benchExperiment(b, "X2") }
func BenchmarkX3SampleSizeBoundary(b *testing.B)    { benchExperiment(b, "X3") }
func BenchmarkX4MemoryAblation(b *testing.B)        { benchExperiment(b, "X4") }
func BenchmarkX5MultiOpinion(b *testing.B)          { benchExperiment(b, "X5") }
func BenchmarkX6ExponentialTrap(b *testing.B)       { benchExperiment(b, "X6") }
func BenchmarkX7ConflictingSources(b *testing.B)    { benchExperiment(b, "X7") }
func BenchmarkX8PricePassivity(b *testing.B)        { benchExperiment(b, "X8") }
func BenchmarkX9Topology(b *testing.B)              { benchExperiment(b, "X9") }
func BenchmarkX10Universality(b *testing.B)         { benchExperiment(b, "X10") }
func BenchmarkX11PopulationProtocols(b *testing.B)  { benchExperiment(b, "X11") }
func BenchmarkX12FaultRecovery(b *testing.B)        { benchExperiment(b, "X12") }
func BenchmarkX13EvolveSearch(b *testing.B)         { benchExperiment(b, "X13") }

// Micro-benchmarks and ablations.

// BenchmarkStepCount measures the exact count engine's per-round cost —
// the number that makes 10⁸-agent populations tractable.
func BenchmarkStepCount(b *testing.B) {
	for _, tc := range []struct {
		name string
		n    int64
		rule *bitspread.Rule
	}{
		{"voter/n=1e4", 10_000, bitspread.Voter(1)},
		{"voter/n=1e8", 100_000_000, bitspread.Voter(1)},
		{"minority3/n=1e6", 1_000_000, bitspread.Minority(3)},
		{"minorityBig/n=1e6", 1_000_000, bitspread.Minority(bitspread.SqrtNLogN(1).Of(1_000_000))},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := bitspread.NewRNG(1)
			x := tc.n / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x = bitspread.StepCount(tc.rule, tc.n, 1, x, g)
				if x < 1 {
					x = 1
				}
			}
		})
	}
}

// BenchmarkEngineAblation compares the exact count engine against the
// literal agent engine on the same instance — the core design choice
// (DESIGN.md §6).
func BenchmarkEngineAblation(b *testing.B) {
	const n = 4096
	cfg := bitspread.Config{
		N:         n,
		Rule:      bitspread.Minority(3),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 64,
	}
	b.Run("count", func(b *testing.B) {
		g := bitspread.NewRNG(1)
		for i := 0; i < b.N; i++ {
			if _, err := bitspread.RunParallel(cfg, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("agent", func(b *testing.B) {
		g := bitspread.NewRNG(1)
		for i := 0; i < b.N; i++ {
			if _, err := bitspread.RunAgents(cfg, bitspread.AgentOptions{}, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunAgents times full 16-round runs of the Minority(3) trap
// from X₀ = n/2 on the agent-engine variants: the byte-per-opinion
// reference body (literal, at n = 2²⁰ only), the bitset engine (packed,
// the RunAgents default) and the bitset engine split into NumCPU shards
// (sharded; DESIGN.md §10). The GOMAXPROCS axis is -cpu; sharded keeps
// NumCPU shards at every value, so -cpu 1 measures the cost of sharding
// on one proc:
//
//	go test -run '^$' -bench BenchmarkRunAgents -cpu 1,2,4 .
//
// Throughput is agent-rounds (n × Result.Rounds) per second.
func BenchmarkRunAgents(b *testing.B) {
	sharded := bitspread.AgentOptions{Shards: runtime.NumCPU()}
	for _, c := range []struct {
		n    int64
		name string
		opts bitspread.AgentOptions
	}{
		{1 << 20, "literal", bitspread.AgentOptions{Unpacked: true}},
		{1 << 20, "packed", bitspread.AgentOptions{}},
		{1 << 20, "sharded", sharded},
		{1 << 24, "packed", bitspread.AgentOptions{}},
		{1 << 24, "sharded", sharded},
	} {
		cfg := bitspread.Config{
			N:         c.n,
			Rule:      bitspread.Minority(3),
			Z:         1,
			X0:        c.n / 2,
			MaxRounds: 16,
		}
		b.Run(fmt.Sprintf("n=%d/%s", c.n, c.name), func(b *testing.B) {
			g := bitspread.NewRNG(1)
			var agentRounds int64
			for i := 0; i < b.N; i++ {
				res, err := bitspread.RunAgents(cfg, c.opts, g)
				if err != nil {
					b.Fatal(err)
				}
				agentRounds += c.n * res.Rounds
			}
			b.ReportMetric(float64(agentRounds)/b.Elapsed().Seconds(), "agent-rounds/s")
		})
	}
}

// BenchmarkStepCountBatch measures one lockstep round of a replica batch
// with and without the adopt-probability cache, across the sample-size
// regimes of the paper (constant ℓ and ℓ = ⌈√(n ln n)⌉, where the O(ℓ)
// Eq. 4 sum dominates and caching should win ≥ 5× per replica-round).
func BenchmarkStepCountBatch(b *testing.B) {
	const (
		n        = 1 << 16
		z        = 1
		replicas = 1024 // full-sweep scale; cross-replica sharing is the point
	)
	for _, ell := range []int{1, 3, bitspread.SqrtNLogN(1).Of(n)} {
		rule := bitspread.Minority(ell)
		newBatch := func() ([]int64, []*bitspread.RNG) {
			xs := make([]int64, replicas)
			gs := make([]*bitspread.RNG, replicas)
			master := bitspread.NewRNG(7)
			for i := range xs {
				xs[i] = n / 2
				gs[i] = bitspread.NewRNG(master.Uint64())
			}
			return xs, gs
		}
		// Replicas that reach a consensus are re-seeded at n/2 so the
		// batch stays in the pre-consensus band where Eq. 4 is actually
		// evaluated (big-sample Minority absorbs in polylog rounds);
		// both variants apply the identical reset.
		reheat := func(xs []int64) {
			for r := range xs {
				if xs[r] <= 1 || xs[r] >= n-1 {
					xs[r] = n / 2
				}
			}
		}
		b.Run("uncached/"+byEll(ell), func(b *testing.B) {
			xs, gs := newBatch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range xs {
					xs[r] = bitspread.StepCount(rule, n, z, xs[r], gs[r])
				}
				reheat(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/replicas, "ns/replica-round")
		})
		b.Run("cached/"+byEll(ell), func(b *testing.B) {
			xs, gs := newBatch()
			cache := bitspread.NewAdoptCache(rule, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bitspread.StepCountBatch(cache, z, xs, gs)
				reheat(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/replicas, "ns/replica-round")
		})
	}
}

// BenchmarkAdoptProb measures the Eq. 4 evaluation across sample sizes —
// the hot inner call of every engine (mode-recurrence ablation target).
func BenchmarkAdoptProb(b *testing.B) {
	for _, ell := range []int{1, 3, 16, 256, 4096} {
		rule := bitspread.Minority(ell)
		b.Run(byEll(ell), func(b *testing.B) {
			p := 0.37
			for i := 0; i < b.N; i++ {
				_ = rule.AdoptProb(i&1, p)
			}
		})
	}
}

func byEll(ell int) string {
	switch {
	case ell < 10:
		return "ell=" + string(rune('0'+ell))
	default:
		return "ell=big/" + itoa(ell)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkSequentialStep measures the birth–death activation step.
func BenchmarkSequentialStep(b *testing.B) {
	g := bitspread.NewRNG(1)
	rule := bitspread.Voter(1)
	x := int64(500_000)
	for i := 0; i < b.N; i++ {
		x = bitspread.SequentialStep(rule, 1_000_000, 1, x, g)
		if x < 1 {
			x = 1
		}
	}
}

// BenchmarkRunSequential times whole sequential runs of 4 rounds (4·n
// activations) from X₀ = n/2 at n = 2¹⁶, where the per-activation Eq. 4
// lookup is the cost that matters; ns/activation divides by the
// activations drawn. BenchmarkSequentialStep times the one-shot step,
// which evaluates Eq. 4 afresh on every call.
func BenchmarkRunSequential(b *testing.B) {
	const n = 1 << 16
	for _, c := range []struct {
		name string
		rule *bitspread.Rule
	}{
		{"voter1", bitspread.Voter(1)},
		{"minority3", bitspread.Minority(3)},
	} {
		cfg := bitspread.Config{N: n, Rule: c.rule, Z: 1, X0: n / 2, MaxRounds: 4}
		b.Run(c.name, func(b *testing.B) {
			g := bitspread.NewRNG(1)
			var activations int64
			for i := 0; i < b.N; i++ {
				res, err := bitspread.RunSequential(cfg, g)
				if err != nil {
					b.Fatal(err)
				}
				activations += res.Activations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(activations), "ns/activation")
		})
	}
}

// BenchmarkCoalescence measures the dual process (Figure 4 engine).
func BenchmarkCoalescence(b *testing.B) {
	g := bitspread.NewRNG(1)
	for i := 0; i < b.N; i++ {
		bitspread.CoalescenceTime(1024, 1_000_000, g.Split(), false)
	}
}

// BenchmarkExactChain measures dense-chain construction plus hitting-time
// solve (the validation path of T7 and bitexact).
func BenchmarkExactChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chain, err := bitspread.ParallelChain(bitspread.Minority(3), 128, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chain.ExpectedHittingTimes(map[int]bool{128: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiasAnalysis measures the Eq. 3 polynomial construction and
// root isolation.
func BenchmarkBiasAnalysis(b *testing.B) {
	for _, ell := range []int{3, 8, 16} {
		b.Run("ell="+itoa(ell), func(b *testing.B) {
			rule := bitspread.Minority(ell)
			for i := 0; i < b.N; i++ {
				_ = bitspread.AnalyzeBias(rule)
			}
		})
	}
}
