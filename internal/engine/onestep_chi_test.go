package engine_test

// One-step-kernel suite: every parallel-setting engine (the bitset
// variants, the literal agent body and both count engines) must draw X₁
// from the exact Eq. 4 law (Prop 5), not merely agree with the other
// engines. Each cell runs R one-round replicas from a fixed X₀ and
// compares the histogram of X₁ with the exact row by a Pearson
// goodness-of-fit χ² at α = 0.01. The fault-free oracle is
// markov.ParallelChain's row; under an omission or stubborn window at
// round 1 it is the two-binomial convolution with the window applied,
// mixed over the pinned prefix's initial ones (the agent engines' initial
// layout is a uniform subset, and the count engines draw the pin
// hypergeometrically, so that count is hypergeometric either way). Seeds
// are fixed, so the suite is deterministic. The sequential engine has no
// one-round law of this form and is not covered.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bitspread/internal/dist"
	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/markov"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/vm"
)

// oneStepWindow is a fault window active in round 1 only.
type oneStepWindow struct {
	name   string
	q      float64 // omission probability
	pinned float64 // stubborn fraction, pinned at opinion 1
}

func (w oneStepWindow) schedule(t *testing.T) *fault.Schedule {
	t.Helper()
	var events []fault.Event
	if w.q > 0 {
		events = append(events, fault.OmissionFor(1, 1, w.q))
	}
	if w.pinned > 0 {
		events = append(events, fault.StubbornFor(1, 1, w.pinned, 1))
	}
	if events == nil {
		return nil
	}
	s, err := fault.New(events...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// oneStepLaw is the exact law of X₁ from X₀ = x0 under the window: the
// source holds z, s stubborn agents (slots 1..s) are pinned at 1, and
// every free agent keeps its opinion with probability q and otherwise
// adopts 1 with probability P_b(x/n), x the one-count after the pin.
func oneStepLaw(r *protocol.Rule, n, z, x0 int64, q float64, s int64) []float64 {
	law := make([]float64, n+1)
	slots, ones := n-1, x0-int64(z)
	for h := max(0, s-(slots-ones)); h <= min(s, ones); h++ {
		// h of the pinned slots held a one before the boundary.
		w := math.Exp(dist.LogChoose(ones, h) + dist.LogChoose(slots-ones, s-h) - dist.LogChoose(slots, s))
		x := x0 - h + s
		p := float64(x) / float64(n)
		m1 := x - z - s
		m0 := n - x - (1 - z)
		p1 := q + (1-q)*r.AdoptProb(1, p)
		p0 := (1 - q) * r.AdoptProb(0, p)
		for j1 := int64(0); j1 <= m1; j1++ {
			b1 := dist.BinomialPMF(m1, j1, p1)
			for j0 := int64(0); j0 <= m0; j0++ {
				law[z+s+j1+j0] += w * b1 * dist.BinomialPMF(m0, j0, p0)
			}
		}
	}
	return law
}

// oneStepVariant runs reps one-round replicas and returns their X₁. Its
// seeds derive from ord.
type oneStepVariant struct {
	ord  int
	name string
	run  func(t *testing.T, cfg engine.Config, master uint64, reps int) []int64
}

func oneStepVariants() []oneStepVariant {
	type sampler = func(*testing.T, engine.Config, uint64, int) []int64
	solo := func(run func(engine.Config, *rng.RNG) (engine.Result, error)) sampler {
		return func(t *testing.T, cfg engine.Config, master uint64, reps int) []int64 {
			return sampleFinalCounts(t, cfg, run, master, reps)
		}
	}
	agents := func(opts engine.AgentOptions) sampler {
		return solo(func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, opts, g)
		})
	}
	batched := func(run func(engine.Config, []uint64) ([]engine.Result, error)) sampler {
		return func(t *testing.T, cfg engine.Config, master uint64, reps int) []int64 {
			seeds := make([]uint64, reps)
			g := rng.New(master)
			for i := range seeds {
				seeds[i] = g.Uint64()
			}
			res, err := run(cfg, seeds)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int64, reps)
			for i, r := range res {
				out[i] = r.FinalCount
			}
			return out
		}
	}
	// A new variant takes an unused ordinal (7 is free); renumbering one
	// would reseed it.
	return []oneStepVariant{
		{0, "packed", agents(engine.AgentOptions{})},
		{1, "sharded-3", agents(engine.AgentOptions{Shards: 3})},
		{2, "sharded-ncpu", agents(engine.AgentOptions{Shards: runtime.NumCPU()})},
		{3, "chunked", agents(engine.AgentOptions{Chunked: true, Shards: 2})},
		{4, "replicas", batched(func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			return engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, seeds)
		})},
		{5, "count", solo(engine.RunParallel)},
		{6, "count-replicas", batched(engine.RunParallelReplicas)},
		{8, "literal", agents(engine.AgentOptions{Unpacked: true})},
	}
}

// goodnessOfFit returns the χ² p-value of the sample against law.
func goodnessOfFit(t *testing.T, sample []int64, law []float64) float64 {
	t.Helper()
	obs := make([]int64, len(law))
	exp := make([]float64, len(law))
	for _, v := range sample {
		obs[v]++
	}
	for j, p := range law {
		exp[j] = p * float64(len(sample))
	}
	stat, dof, err := dist.ChiSquareStat(obs, exp, 5)
	if err != nil {
		t.Fatal(err)
	}
	return dist.ChiSquareTail(stat, dof)
}

func TestOneStepKernelMatchesEq4(t *testing.T) {
	if testing.Short() {
		t.Skip("one-step suite needs thousands of replicas per cell")
	}
	const (
		n     = 256
		reps  = 3000
		alpha = 0.01
	)
	// 128-agent chunks put a chunk boundary inside the population, so the
	// chunked variant runs its multi-chunk code path.
	defer engine.SetChunkShiftForTest(7)()
	prog, err := vm.Compile(protocol.TwoChoice())
	if err != nil {
		t.Fatal(err)
	}
	vmRule, err := prog.Materialize(vm.EvalLimits{})
	if err != nil {
		t.Fatal(err)
	}
	rules := []*protocol.Rule{
		protocol.Voter(1),
		protocol.Minority(3),
		protocol.WithNoise(protocol.Majority(3), 0.1),
		vmRule, // asymmetric: the two adoption thresholds differ
	}
	windows := []oneStepWindow{
		{name: "none"},
		{name: "omission", q: 0.5},
		{name: "stubborn", pinned: 0.25},
	}
	for _, r := range rules {
		chain, err := markov.ParallelChain(r, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range windows {
			for _, x0 := range []int64{n / 2, n / 5} {
				if w.name != "none" && x0 != n/2 {
					continue
				}
				cfg := engine.Config{N: n, Rule: r, Z: 1, X0: x0, MaxRounds: 1, Faults: w.schedule(t)}
				pinned := int64(math.Round(w.pinned * (n - 1)))
				law := oneStepLaw(r, n, 1, x0, w.q, pinned)
				if w.name == "none" {
					// The convolution oracle must agree with the chain's row.
					for j := range law {
						if d := math.Abs(law[j] - chain.Prob(int(x0), j)); d > 1e-9 {
							t.Fatalf("%v x0=%d: oracle %v vs chain %v at %d", r, x0, law[j], chain.Prob(int(x0), j), j)
						}
						law[j] = chain.Prob(int(x0), j)
					}
				}
				for _, v := range oneStepVariants() {
					name := fmt.Sprintf("%v/%s/x0=%d/%s", r, w.name, x0, v.name)
					if p := goodnessOfFit(t, v.run(t, cfg, uint64(7919*v.ord+int(x0)), reps), law); p < alpha {
						// Escalate before flagging, as the equivalence suite
						// does: a real divergence fails again on an
						// independent, larger sample; a fluke recurs with
						// probability α.
						if p2 := goodnessOfFit(t, v.run(t, cfg, uint64(7919*v.ord+int(x0))+104729, 2*reps), law); p2 < alpha {
							t.Errorf("%s: χ² p-values %.5f and %.5f (retry) < %v — X₁ does not follow Eq. 4", name, p, p2, alpha)
						}
					}
				}
			}
		}
	}
}
