package gossip

import (
	"errors"
	"math"
	"testing"

	"bitspread/internal/rng"
)

func TestSpreadValidation(t *testing.T) {
	cases := []Config{
		{N: 0, Informed0: 1, Mode: Push},
		{N: 10, Informed0: 0, Mode: Push},
		{N: 10, Informed0: 11, Mode: Pull},
		{N: 10, Informed0: 1, Mode: Mode(9)},
	}
	for i, cfg := range cases {
		if _, err := Spread(cfg, rng.New(1)); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSpreadCompletesAllModes(t *testing.T) {
	for _, mode := range []Mode{Push, Pull, PushPull} {
		res, err := Spread(Config{N: 4096, Informed0: 1, Mode: mode}, rng.New(uint64(mode)))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !res.Completed {
			t.Errorf("%v did not complete: %+v", mode, res)
		}
		if res.Informed != 4096 {
			t.Errorf("%v informed = %d", mode, res.Informed)
		}
	}
}

func TestSpreadLogarithmic(t *testing.T) {
	// Push&pull completes in Θ(log n) rounds: check the ratio to log₂ n is
	// bounded (the classical constant is ~log₂n + ln n + O(1) for push).
	for _, n := range []int64{1 << 10, 1 << 14, 1 << 18} {
		master := rng.New(uint64(n))
		worst := int64(0)
		for rep := 0; rep < 10; rep++ {
			res, err := Spread(Config{N: n, Informed0: 1, Mode: PushPull}, master.Split())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("n=%d did not complete", n)
			}
			if res.Rounds > worst {
				worst = res.Rounds
			}
		}
		logn := math.Log2(float64(n))
		if float64(worst) > 4*logn {
			t.Errorf("n=%d: worst completion %d rounds > 4·log₂n = %v", n, worst, 4*logn)
		}
	}
}

func TestSpreadMonotone(t *testing.T) {
	// The informed count never decreases and never exceeds n. A seeded
	// run capped at round r stops right after round r, so capping one
	// seed at r = 1, 2, ... replays its trajectory round by round.
	const n = 2048
	prev := int64(1)
	for r := int64(1); r <= 64*log2Ceil(n)+64; r++ {
		res, err := Spread(Config{N: n, Informed0: 1, Mode: PushPull, MaxRounds: r}, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if res.Informed < prev || res.Informed > n {
			t.Fatalf("round %d: informed count %d after %d, want monotone in [1, %d]", r, res.Informed, prev, n)
		}
		prev = res.Informed
		if res.Completed {
			return
		}
	}
	t.Error("push&pull never completed")
}

func TestSpreadAlreadyComplete(t *testing.T) {
	res, err := Spread(Config{N: 10, Informed0: 10, Mode: Push}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 0 {
		t.Errorf("pre-complete run: %+v", res)
	}
}

func TestSpreadHonoursCap(t *testing.T) {
	res, err := Spread(Config{N: 1 << 20, Informed0: 1, Mode: Pull, MaxRounds: 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Rounds != 2 {
		t.Errorf("capped run: %+v", res)
	}
}

func TestPullGrowthShape(t *testing.T) {
	// From half informed, one pull round informs ~half the susceptible:
	// E[I'] = I + S·(I/n) = n·3/4.
	const n = 1 << 16
	sum := 0.0
	master := rng.New(8)
	const reps = 200
	for i := 0; i < reps; i++ {
		res, err := Spread(Config{N: n, Informed0: n / 2, Mode: Pull, MaxRounds: 1}, master.Split())
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(res.Informed)
	}
	mean := sum / reps
	want := 0.75 * n
	if math.Abs(mean-want) > 0.01*n {
		t.Errorf("one pull round from n/2: mean %v, want %v", mean, want)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Push, Pull, PushPull, Mode(42)} {
		if m.String() == "" {
			t.Errorf("empty string for %d", int(m))
		}
	}
}
