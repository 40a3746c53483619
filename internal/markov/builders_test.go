package markov

import (
	"math"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func TestParallelChainValidation(t *testing.T) {
	if _, err := ParallelChain(protocol.Voter(1), 1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := ParallelChain(protocol.Voter(1), 10_000, 1); err == nil {
		t.Error("huge n accepted for exact chain")
	}
	if _, err := ParallelChain(protocol.Voter(1), 10, 2); err == nil {
		t.Error("z=2 accepted")
	}
}

func TestParallelChainRowMean(t *testing.T) {
	// Row expectation must equal z + m₁P₁ + m₀P₀ (the Prop 5 building
	// block) for every feasible state.
	const n, z = 40, 1
	r := protocol.Minority(3)
	c, err := ParallelChain(r, n, z)
	if err != nil {
		t.Fatal(err)
	}
	for x := z; x <= n-1+z; x++ {
		p := float64(x) / n
		want := float64(z) + float64(x-z)*r.AdoptProb(1, p) + float64(n-x-(1-z))*r.AdoptProb(0, p)
		mean := 0.0
		for y := 0; y <= n; y++ {
			mean += float64(y) * c.Prob(x, y)
		}
		if math.Abs(mean-want) > 1e-8 {
			t.Errorf("row %d mean = %v, want %v", x, mean, want)
		}
	}
}

func TestParallelChainConsensusAbsorbing(t *testing.T) {
	const n = 30
	for _, z := range []int{0, 1} {
		c, err := ParallelChain(protocol.Voter(2), n, z)
		if err != nil {
			t.Fatal(err)
		}
		target := z * n
		if got := c.Prob(target, target); math.Abs(got-1) > 1e-12 {
			t.Errorf("z=%d consensus self-loop = %v", z, got)
		}
	}
}

// TestParallelChainVsSimulation cross-validates the exact expected hitting
// time against the Monte-Carlo mean of the count engine.
func TestParallelChainVsSimulation(t *testing.T) {
	const (
		n    = 24
		z    = 1
		x0   = 12
		reps = 3000
	)
	r := protocol.Voter(1)
	c, err := ParallelChain(r, n, z)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.ExpectedHittingTimes(map[int]bool{n: true})
	if err != nil {
		t.Fatal(err)
	}
	exact := h[x0]

	g := rng.New(77)
	sum := 0.0
	for i := 0; i < reps; i++ {
		res, err := engine.RunParallel(engine.Config{
			N: n, Rule: r, Z: z, X0: x0,
		}, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("run did not converge")
		}
		sum += float64(res.Rounds)
	}
	mc := sum / reps
	if math.Abs(mc-exact)/exact > 0.1 {
		t.Errorf("Monte-Carlo mean %v vs exact %v (>10%% off)", mc, exact)
	}
}

func TestParallelChainVoterUpperBoundShape(t *testing.T) {
	// Theorem 2 finite-n sanity: the exact expected convergence time of the
	// Voter from the worst case is below 4·n·ln(n) for moderate n.
	for _, n := range []int64{16, 32, 64} {
		c, err := ParallelChain(protocol.Voter(1), n, 1)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.ExpectedHittingTimes(map[int]bool{int(n): true})
		if err != nil {
			t.Fatal(err)
		}
		bound := 4 * float64(n) * math.Log(float64(n))
		if h[1] > bound {
			t.Errorf("n=%d: exact E[τ] = %v exceeds 4n·ln n = %v", n, h[1], bound)
		}
		if h[1] < float64(n)/4 {
			t.Errorf("n=%d: exact E[τ] = %v suspiciously small", n, h[1])
		}
	}
}

func TestSequentialBirthDeathMatchesDense(t *testing.T) {
	const n, z = 20, 1
	r := protocol.Voter(1)
	bd, err := SequentialBirthDeath(r, n, z)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := bd.Dense()
	if err != nil {
		t.Fatal(err)
	}
	h, err := dense.ExpectedHittingTimes(map[int]bool{n: true})
	if err != nil {
		t.Fatal(err)
	}
	for a := 1; a < n; a++ {
		want := h[a]
		if got := bd.ExpectedTimeUp(a, n); math.Abs(got-want) > 1e-6*want {
			t.Errorf("ExpectedTimeUp(%d) = %v, dense %v", a, got, want)
		}
	}
}

func TestSequentialBirthDeathVsSimulation(t *testing.T) {
	const (
		n    = 16
		z    = 1
		x0   = 1
		reps = 1500
	)
	r := protocol.Voter(1)
	bd, err := SequentialBirthDeath(r, n, z)
	if err != nil {
		t.Fatal(err)
	}
	exact := bd.ExpectedTimeUp(x0, n) // in activations

	g := rng.New(88)
	sum := 0.0
	for i := 0; i < reps; i++ {
		res, err := engine.RunSequential(engine.Config{
			N: n, Rule: r, Z: z, X0: x0,
		}, g.Split())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("sequential run did not converge")
		}
		sum += float64(res.Activations)
	}
	mc := sum / reps
	if math.Abs(mc-exact)/exact > 0.12 {
		t.Errorf("Monte-Carlo activations %v vs exact %v", mc, exact)
	}
}

func TestSequentialLowerBoundShape(t *testing.T) {
	// [14]: in the sequential setting every protocol needs Ω(n) parallel
	// rounds. Check the exact expected time for the Voter from the
	// balanced start grows at least linearly in n (in parallel rounds).
	prev := 0.0
	for _, n := range []int64{16, 32, 64, 128} {
		bd, err := SequentialBirthDeath(protocol.Voter(1), n, 1)
		if err != nil {
			t.Fatal(err)
		}
		rounds := bd.ExpectedTimeUp(int(n)/2, int(n)) / float64(n)
		if rounds < float64(n)/8 {
			t.Errorf("n=%d: sequential E[τ] = %v parallel rounds, want Ω(n)", n, rounds)
		}
		if rounds <= prev {
			t.Errorf("n=%d: expected time not increasing (%v after %v)", n, rounds, prev)
		}
		prev = rounds
	}
}
