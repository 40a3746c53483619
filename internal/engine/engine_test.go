package engine

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestConfigValidation(t *testing.T) {
	voter := protocol.Voter(1)
	tests := []struct {
		name    string
		cfg     Config
		wantErr error
	}{
		{"ok", Config{N: 10, Rule: voter, Z: 1, X0: 5}, nil},
		{"tiny population", Config{N: 1, Rule: voter, Z: 1, X0: 1}, ErrPopulation},
		{"nil rule", Config{N: 10, Z: 1, X0: 5}, ErrNoRule},
		{"bad opinion", Config{N: 10, Rule: voter, Z: 2, X0: 5}, ErrOpinion},
		{"X0 below source", Config{N: 10, Rule: voter, Z: 1, X0: 0}, ErrInitial},
		{"X0 above range", Config{N: 10, Rule: voter, Z: 0, X0: 10}, ErrInitial},
		{"X0 full consensus ok", Config{N: 10, Rule: voter, Z: 1, X0: 10}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunParallel(tt.cfg, rng.New(1))
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestStepCountRangeQuick(t *testing.T) {
	g := rng.New(2)
	rules := []*protocol.Rule{
		protocol.Voter(3), protocol.Minority(4), protocol.Majority(5), protocol.TwoChoice(),
	}
	f := func(nRaw uint16, xRaw uint16, zBit, which uint8) bool {
		n := int64(nRaw)%1000 + 2
		z := int(zBit % 2)
		lo, hi := int64(z), n-1+int64(z)
		x := lo + int64(xRaw)%(hi-lo+1)
		r := rules[int(which)%len(rules)]
		next := StepCount(r, n, z, x, g)
		return next >= lo && next <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestConsensusIsAbsorbing(t *testing.T) {
	// With a rule satisfying Prop 3, both the correct consensus and the
	// step from it must be fixed.
	g := rng.New(3)
	for _, z := range []int{0, 1} {
		const n = 100
		target := consensusTarget(n, z)
		for i := 0; i < 100; i++ {
			if got := StepCount(protocol.Minority(3), n, z, target, g); got != target {
				t.Fatalf("consensus not absorbing: z=%d stepped %d -> %d", z, target, got)
			}
		}
	}
}

func TestRunParallelVoterConverges(t *testing.T) {
	for _, z := range []int{0, 1} {
		cfg := Config{
			N:    64,
			Rule: protocol.Voter(1),
			Z:    z,
			X0:   WorstCaseInit(64, z),
		}
		res, err := RunParallel(cfg, rng.New(uint64(z)+10))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("Voter did not converge for z=%d (rounds=%d, final=%d)", z, res.Rounds, res.FinalCount)
		}
		if res.FinalCount != consensusTarget(64, z) {
			t.Errorf("final count = %d", res.FinalCount)
		}
		if res.Activations != res.Rounds*63 {
			t.Errorf("activations = %d, want rounds*63 = %d", res.Activations, res.Rounds*63)
		}
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	cfg := Config{N: 128, Rule: protocol.Voter(1), Z: 1, X0: 1}
	a, err := RunParallel(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestRunParallelAlreadyConverged(t *testing.T) {
	cfg := Config{N: 10, Rule: protocol.Voter(1), Z: 1, X0: 10}
	res, err := RunParallel(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 0 {
		t.Errorf("expected immediate convergence, got %+v", res)
	}
}

func TestRunParallelMinorityBigSampleFast(t *testing.T) {
	// The [15] regime: ℓ = ⌈√(n ln n)⌉ should converge in O(log² n) rounds.
	const n = 1024
	ell := protocol.SqrtNLogN(1).Of(n)
	cfg := Config{
		N:    n,
		Rule: protocol.Minority(ell),
		Z:    1,
		X0:   WorstCaseInit(n, 1),
	}
	res, err := RunParallel(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Minority with large samples did not converge")
	}
	logn := math.Log2(float64(n)) // = 10
	if float64(res.Rounds) > 10*logn*logn {
		t.Errorf("Minority took %d rounds, want O(log² n) ≈ %v", res.Rounds, logn*logn)
	}
}

func TestRunParallelMajorityTraps(t *testing.T) {
	// From the all-wrong configuration, Majority cannot recover: it sits in
	// the wrong consensus for the whole (capped) run.
	const n = 256
	cfg := Config{
		N:         n,
		Rule:      protocol.Majority(5),
		Z:         1,
		X0:        WorstCaseInit(n, 1),
		MaxRounds: 2000,
	}
	res, err := RunParallel(cfg, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("Majority escaped the wrong consensus — should be trapped")
	}
	if !res.HitWrongConsensus {
		t.Error("trap flag not set")
	}
	if res.Rounds != 2000 {
		t.Errorf("rounds = %d, want cap 2000", res.Rounds)
	}
}

func TestRunParallelNoisyNeverConverges(t *testing.T) {
	// A Prop-3-violating rule has no absorbing consensus: Converged must
	// stay false even if the chain touches n·z.
	cfg := Config{
		N:         64,
		Rule:      protocol.WithNoise(protocol.Voter(1), 0.05),
		Z:         1,
		X0:        32,
		MaxRounds: 500,
	}
	res, err := RunParallel(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("noisy rule reported convergence")
	}
}

// TestRecordCallback: the probe sees one RoundDone per round, rounds
// numbered 1, 2, ... with every count in range.
func TestRecordCallback(t *testing.T) {
	p := &Trajectory{}
	cfg := Config{N: 32, Rule: protocol.Voter(1), Z: 1, X0: 16, MaxRounds: 50, Probe: p}
	res, err := RunParallel(cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(p.Rounds)) != res.Rounds {
		t.Errorf("recorded %d rounds, result says %d", len(p.Rounds), res.Rounds)
	}
	for i, r := range p.Rounds {
		if r != int64(i+1) {
			t.Fatalf("record round %d = %d", i, r)
		}
		if c := p.Counts[i]; c < 1 || c > 32 {
			t.Errorf("recorded count %d out of range", c)
		}
	}
}

// TestCountVsAgentOneStep validates the count engine against the literal
// agent engine: starting from the same configuration, the one-round
// distributions must agree (checked through mean and variance, with the
// exact mean known analytically).
func TestCountVsAgentOneStep(t *testing.T) {
	const (
		n    = 200
		x0   = 60
		z    = 1
		reps = 4000
	)
	rules := []*protocol.Rule{protocol.Voter(3), protocol.Minority(3), protocol.TwoChoice()}
	for _, r := range rules {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			p := float64(x0) / n
			p1, p0 := r.AdoptProb(1, p), r.AdoptProb(0, p)
			m1, m0 := float64(x0-z), float64(n-x0-(1-z))
			wantMean := float64(z) + m1*p1 + m0*p0
			wantVar := m1*p1*(1-p1) + m0*p0*(1-p0)

			measure := func(run func(Config, *rng.RNG) (Result, error), seed uint64) (mean, variance float64) {
				g := rng.New(seed)
				sum, sumSq := 0.0, 0.0
				for i := 0; i < reps; i++ {
					res, err := run(Config{N: n, Rule: r, Z: z, X0: x0, MaxRounds: 1}, g.Split())
					if err != nil {
						t.Fatal(err)
					}
					v := float64(res.FinalCount)
					sum += v
					sumSq += v * v
				}
				mean = sum / reps
				variance = sumSq/reps - mean*mean
				return mean, variance
			}

			agentRun := func(cfg Config, g *rng.RNG) (Result, error) {
				return RunAgents(cfg, AgentOptions{}, g)
			}
			cm, cv := measure(RunParallel, 1000)
			am, av := measure(agentRun, 2000)

			se := math.Sqrt(wantVar / reps)
			for _, m := range []struct {
				name string
				mean float64
			}{{"count", cm}, {"agent", am}} {
				if math.Abs(m.mean-wantMean) > 5*se {
					t.Errorf("%s engine mean = %v, want %v ± %v", m.name, m.mean, wantMean, 5*se)
				}
			}
			for _, v := range []struct {
				name     string
				variance float64
			}{{"count", cv}, {"agent", av}} {
				if wantVar > 0 && math.Abs(v.variance-wantVar)/wantVar > 0.25 {
					t.Errorf("%s engine variance = %v, want %v (±25%%)", v.name, v.variance, wantVar)
				}
			}
		})
	}
}

func TestRunAgentsConverges(t *testing.T) {
	cfg := Config{N: 64, Rule: protocol.Voter(2), Z: 0, X0: 63}
	res, err := RunAgents(cfg, AgentOptions{}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.FinalCount != 0 {
		t.Errorf("agent engine: %+v", res)
	}
}

func TestRunSequentialVoterConverges(t *testing.T) {
	cfg := Config{N: 32, Rule: protocol.Voter(1), Z: 1, X0: 1}
	res, err := RunSequential(cfg, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sequential Voter did not converge: %+v", res)
	}
	if res.Rounds < 1 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Activations < res.Rounds-1 {
		t.Errorf("activations %d inconsistent with %d rounds", res.Activations, res.Rounds)
	}
}

func TestSequentialStepMovesByAtMostOne(t *testing.T) {
	g := rng.New(14)
	const n, z = 100, 1
	x := int64(50)
	for i := 0; i < 10000; i++ {
		next := SequentialStep(protocol.Minority(5), n, z, x, g)
		if d := next - x; d < -1 || d > 1 {
			t.Fatalf("sequential step moved by %d", d)
		}
		x = next
		if x < 1 || x > n {
			t.Fatalf("count out of range: %d", x)
		}
	}
}

func TestWorstCaseInit(t *testing.T) {
	if got := WorstCaseInit(100, 1); got != 1 {
		t.Errorf("WorstCaseInit(z=1) = %d", got)
	}
	if got := WorstCaseInit(100, 0); got != 99 {
		t.Errorf("WorstCaseInit(z=0) = %d", got)
	}
}

func TestBalancedInit(t *testing.T) {
	if got := BalancedInit(100, 0); got != 50 {
		t.Errorf("BalancedInit = %d", got)
	}
	if got := BalancedInit(2, 1); got != 1 {
		t.Errorf("BalancedInit(2, z=1) = %d", got)
	}
}

func TestAdversarialConfig(t *testing.T) {
	cfg, c := AdversarialConfig(protocol.Minority(3), 1000, 500)
	if cfg.Z != 1 {
		t.Errorf("Minority adversarial z = %d, want 1 (Case 1)", cfg.Z)
	}
	if cfg.X0 <= int64(c.A2*1000) || cfg.X0 >= int64(c.A3*1000)+1 {
		t.Errorf("X0 = %d outside (a2·n, a3·n)", cfg.X0)
	}
	if err := cfg.validate(); err != nil {
		t.Errorf("adversarial config invalid: %v", err)
	}

	cfg, _ = AdversarialConfig(protocol.Majority(3), 1000, 500)
	if cfg.Z != 0 {
		t.Errorf("Majority adversarial z = %d, want 0 (Case 2)", cfg.Z)
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if got := DefaultMaxRounds(1); got != 1024 {
		t.Errorf("DefaultMaxRounds(1) = %d", got)
	}
	if got := DefaultMaxRounds(100); got <= 1024 {
		t.Errorf("DefaultMaxRounds(100) = %d", got)
	}
}

func TestRunParallelLargePopulation(t *testing.T) {
	// The count engine must handle n = 10^7 in reasonable time.
	if testing.Short() {
		t.Skip("large population test")
	}
	const n = 10_000_000
	cfg := Config{
		N:         n,
		Rule:      protocol.BiasedVoter(3, 0.2),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 5000,
	}
	res, err := RunParallel(cfg, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("BiasedVoter(+0.2) with z=1 should converge upward quickly: %+v", res)
	}
}

// TestResultShardsReported: every engine reports the effective stream
// count in Result.Shards — 0 for the single-stream count-level and
// sequential engines; 1 for the serial literal body
// whatever shard count is asked; the resolved, word-clamped shard count
// for the bitset body, where the requested and effective values differ
// exactly when the request exceeds the engine's ceiling.
func TestResultShardsReported(t *testing.T) {
	cfg := Config{N: 200, Rule: protocol.Voter(1), Z: 1, X0: 100, MaxRounds: 2}
	words := MaxPackedShards(200)
	cases := []struct {
		name string
		run  func() (Result, error)
		want int
	}{
		{"count", func() (Result, error) { return RunParallel(cfg, rng.New(1)) }, 0},
		{"sequential", func() (Result, error) { return RunSequential(cfg, rng.New(1)) }, 0},
		{"unpacked-serial", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{Unpacked: true}, rng.New(1))
		}, 1},
		{"unpacked-sharded", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{Unpacked: true, Shards: 4}, rng.New(1))
		}, 1},
		{"unpacked-overclamped", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{Unpacked: true, Shards: 1000}, rng.New(1))
		}, 1},
		{"packed-serial", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{}, rng.New(1))
		}, 1},
		{"packed-sharded", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{Shards: 3}, rng.New(1))
		}, 3},
		{"packed-overclamped", func() (Result, error) {
			return RunAgents(cfg, AgentOptions{Shards: 1000}, rng.New(1))
		}, words},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Shards != tc.want {
			t.Errorf("%s: Result.Shards = %d, want %d", tc.name, res.Shards, tc.want)
		}
	}

	batch, err := RunAgentsReplicas(cfg, AgentOptions{Shards: 1000}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		if res.Shards != words {
			t.Errorf("replica %d: Result.Shards = %d, want %d", i, res.Shards, words)
		}
	}
}
