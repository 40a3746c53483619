package memory

import (
	"math"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/trace"
)

func TestAdapterMatchesMemorylessEngine(t *testing.T) {
	// The 0-bit adapter run through the memory engine must reproduce the
	// count engine's one-round distribution.
	const (
		n    = 128
		x0   = 40
		z    = 1
		reps = 3000
	)
	rule := protocol.Minority(3)
	p := float64(x0) / n
	wantMean := float64(z) + float64(x0-z)*rule.AdoptProb(1, p) +
		float64(n-x0-(1-z))*rule.AdoptProb(0, p)

	master := rng.New(11)
	sum := 0.0
	for i := 0; i < reps; i++ {
		res, err := Run(Config{
			N:         n,
			Protocol:  NewAdapter(rule),
			Z:         z,
			X0:        x0,
			MaxRounds: 1,
		}, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(res.FinalCount)
	}
	mean := sum / reps
	// Generous 5-sigma band with variance at most n/4 per agent flip.
	se := math.Sqrt(float64(n) / 4 / reps)
	if math.Abs(mean-wantMean) > 5*se*3 {
		t.Errorf("adapter one-round mean = %v, want %v", mean, wantMean)
	}
}

func TestAdapterVoterConverges(t *testing.T) {
	res, err := Run(Config{
		N:        64,
		Protocol: NewAdapter(protocol.Voter(1)),
		Z:        1,
		X0:       1,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.FinalCount != 64 {
		t.Fatalf("adapter voter: %+v", res)
	}
}

func TestAccumulatorValidation(t *testing.T) {
	if _, err := NewAccumulatorMinority(0, 4, true); err == nil {
		t.Error("ℓ=0 accepted")
	}
	if _, err := NewAccumulatorMinority(3, 0, true); err == nil {
		t.Error("window=0 accepted")
	}
	if _, err := NewAccumulatorMinority(3, 1<<21, true); err == nil {
		t.Error("huge window accepted")
	}
}

func TestAccumulatorStatePacking(t *testing.T) {
	p, err := NewAccumulatorMinority(3, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(1)
	st := p.InitState(false, g)
	if st != 0 {
		t.Errorf("synced start state = %v, want 0", st)
	}
	// Mid-window: opinion frozen, count accumulates.
	st, op := p.Step(st, 1, 2, g)
	if op != 1 {
		t.Error("opinion changed mid-window")
	}
	phase, count := unpack(st)
	if phase != 1 || count != 2 {
		t.Errorf("state after one step = (%d, %d), want (1, 2)", phase, count)
	}
	// Adversarial init stays within bounds.
	for i := 0; i < 200; i++ {
		phase, count := unpack(p.InitState(true, g))
		if phase < 0 || phase >= 10 || count < 0 || count > phase*3 {
			t.Fatalf("adversarial init out of bounds: (%d, %d)", phase, count)
		}
	}
}

func TestAccumulatorWindowDecision(t *testing.T) {
	// Window 2, ℓ=2 → pools 4 samples; walk through one full window.
	p, err := NewAccumulatorMinority(2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(2)
	tests := []struct {
		name   string
		k1, k2 int
		want   uint8
	}{
		{"unanimous ones", 2, 2, 1},
		{"unanimous zeros", 0, 0, 0},
		{"ones minority", 1, 0, 1},
		{"zeros minority", 2, 1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := p.InitState(false, g)
			st, op := p.Step(st, 0, tt.k1, g)
			if phase, _ := unpack(st); phase != 1 {
				t.Fatalf("phase = %d after first step", phase)
			}
			st, op = p.Step(st, op, tt.k2, g)
			if op != tt.want {
				t.Errorf("decision = %d, want %d", op, tt.want)
			}
			if phase, count := unpack(st); phase != 0 || count != 0 {
				t.Errorf("state not reset: (%d, %d)", phase, count)
			}
		})
	}
}

func TestAccumulatorTieIsRandom(t *testing.T) {
	p, err := NewAccumulatorMinority(2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	g := rng.New(4)
	ones := 0
	for i := 0; i < 2000; i++ {
		_, op := p.Step(0, 0, 1, g) // 1 of 2: exact tie
		ones += int(op)
	}
	if ones < 850 || ones > 1150 {
		t.Errorf("tie broke to 1 %d/2000 times, want ~1000", ones)
	}
}

func TestAccumulatorStateBits(t *testing.T) {
	p, err := NewAccumulatorMinority(3, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	// phase: 6 bits; counter up to 192: 8 bits.
	if got := p.StateBits(); got != 14 {
		t.Errorf("StateBits = %d, want 14", got)
	}
}

// TestAccumulatorBeatsLowerBound is the §5 headline: with constant ℓ and
// O(log n) bits of synchronized memory, the accumulator converges from
// the all-wrong configuration in far fewer than n^{1-ε} rounds — where
// the memory-less Minority(3) does not converge at all.
func TestAccumulatorBeatsLowerBound(t *testing.T) {
	const (
		n   = 2048
		ell = 3
		z   = 1
	)
	window := int(math.Ceil(math.Sqrt(n*math.Log(n)) / ell))
	proto, err := NewAccumulatorMinority(ell, window, true)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(math.Pow(n, 0.9))

	res, err := Run(Config{
		N:         n,
		Protocol:  proto,
		Z:         z,
		X0:        1, // all wrong
		MaxRounds: budget,
	}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("accumulator did not converge within n^0.9 = %d rounds: %+v", budget, res)
	}

	// Control: the memory-less Minority(3) from its adversarial start
	// cannot do this (Theorem 1).
	cfg, _ := engine.AdversarialConfig(protocol.Minority(ell), n, budget)
	ctrl, err := engine.RunParallel(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Converged {
		t.Error("memory-less control converged within the budget — unexpected")
	}
	t.Logf("accumulator (ℓ=%d, w=%d, %d bits): %d rounds; budget %d", ell, window, proto.StateBits(), res.Rounds, budget)
}

func TestRunValidation(t *testing.T) {
	p, _ := NewAccumulatorMinority(2, 2, true)
	cases := []Config{
		{N: 1, Protocol: p, Z: 1, X0: 1},
		{N: 10, Protocol: nil, Z: 1, X0: 5},
		{N: 10, Protocol: p, Z: 2, X0: 5},
		{N: 10, Protocol: p, Z: 1, X0: 0},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRunRecord(t *testing.T) {
	p, _ := NewAccumulatorMinority(1, 2, true)
	rec := trace.NewRecorder(16, 1)
	_, err := Run(Config{
		N: 16, Protocol: p, Z: 1, X0: 8, MaxRounds: 10, Probe: rec,
	}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("probe never fired")
	}
	_, counts := rec.Points()
	for _, count := range counts {
		if count < 1 || count > 16 {
			t.Errorf("count %d out of range", count)
		}
	}
}

func TestUnsyncedAccumulatorStalls(t *testing.T) {
	// A genuinely interesting negative result, echoing the title of [15]
	// ("the power of synchronicity"): with adversarial phases the window
	// boundaries are spread across rounds, and the population settles into
	// a self-sustained macroscopic oscillation (period ≈ 2w — deciders
	// react to the window-averaged fraction, which lags). The trajectory
	// repeatedly visits near-consensus but exact absorption needs every
	// agent to flip in the same round, which never happens without the
	// shared clock: deciders with non-unanimous pooled windows re-inject
	// the minority opinion. Memory alone does not replace synchrony.
	// This test pins the non-convergence (the stall fraction itself
	// depends on the oscillation phase at cutoff, so it is not asserted).
	const n, ell = 1024, 3
	window := int(math.Ceil(math.Sqrt(n*math.Log(n)) / ell))
	proto, err := NewAccumulatorMinority(ell, window, false)
	if err != nil {
		t.Fatal(err)
	}
	converged := 0
	master := rng.New(13)
	const reps = 3
	for i := 0; i < reps; i++ {
		res, err := Run(Config{
			N:                 n,
			Protocol:          proto,
			Z:                 1,
			X0:                1,
			AdversarialMemory: true,
			MaxRounds:         10_000,
		}, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		if res.Converged {
			converged++
		}
	}
	if converged == reps {
		t.Error("unsynced accumulator converged in every run — the synchronicity finding no longer holds; update X4 and the docs")
	}
}
