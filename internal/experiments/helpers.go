package experiments

import (
	"fmt"
	"math"
	"strconv"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/sim"
)

// pick returns quick when opts.Quick, full otherwise — the single sizing
// switch used everywhere.
func pick[T any](opts Options, quick, full T) T {
	if opts.Quick {
		return quick
	}
	return full
}

// replicate runs the replicas of one Monte-Carlo cell that no engine
// Config describes on the sim scheduler: a unit named after the cell's
// experiment and keyed by seed, the sizing and key, which holds every
// other input of run but the replica index. Replica i draws from g, the
// i-th stream of rng.New(seed).SplitN(replicas) — the order a loop of
// Split calls would give it; a cell that seeds its own stream ignores g.
// It returns the records in replica order for the caller to fold.
//
// g is a copy of the stream that the replica's worker allocates: SplitN's
// 32-byte generators sit two to a cache line, and two workers writing
// neighbours would contend for it on every draw.
func replicate[R any](opts Options, name string, seed uint64, replicas int, key string, run func(i int, g *rng.RNG) (R, error)) ([]R, error) {
	gens := rng.New(seed).SplitN(replicas)
	return sim.RunUnit(opts.Ctx, sim.Unit[R]{
		Name:     name,
		Key:      fmt.Sprintf("seed=%d quick=%t %s", seed, opts.Quick, key),
		Replicas: replicas,
		Run: func(i int) (R, error) {
			g := *gens[i]
			return run(i, &g)
		},
		Observer: opts.Observer,
	}, opts.Workers, opts.Journal)
}

// count returns how many of bs are true.
func count(bs []bool) int {
	k := 0
	for _, b := range bs {
		if b {
			k++
		}
	}
	return k
}

// subSeed derives a distinct deterministic seed per experiment component.
func subSeed(opts Options, salt uint64) uint64 {
	return opts.Seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 1
}

// polyCap returns ⌈n^exp⌉, the round budget n^{1-ε} used by the
// lower-bound experiments (exp = 1-ε).
func polyCap(n int64, exp float64) int64 {
	return int64(math.Ceil(math.Pow(float64(n), exp)))
}

// measured is one Monte-Carlo cell: a task's convergence statistics.
type measured struct {
	out     sim.Outcome
	rate    float64
	rateLo  float64
	rateHi  float64
	meanTau float64 // mean rounds over converged replicas (NaN if none)
	p99Tau  float64
}

// measure runs replicas of the given configuration on the count engine
// and aggregates. It honours opts.Ctx (cancellation surfaces as the
// context error) and checkpoints finished replicas into opts.Journal when
// one is set.
func measure(opts Options, name string, cfg engine.Config, replicas int, salt uint64) (measured, error) {
	if opts.Probe != nil {
		cfg.Probe = opts.Probe
	}
	out, err := sim.RunContext(opts.Ctx, sim.Task{
		Name:     name,
		Config:   cfg,
		Mode:     sim.Parallel,
		Replicas: replicas,
		Seed:     subSeed(opts, salt),
		Observer: opts.Observer,
	}, opts.Workers, opts.Journal)
	if err != nil {
		return measured{}, err
	}
	m := measured{out: out}
	m.rate, m.rateLo, m.rateHi = out.SuccessRate()
	s := out.RoundsSummary()
	if s.N > 0 {
		m.meanTau = s.Mean
		m.p99Tau = s.P99
	} else {
		m.meanTau = math.NaN()
		m.p99Tau = math.NaN()
	}
	return m, nil
}

// adversarialTask builds the Theorem 12 adversarial instance for a rule.
func adversarialTask(r *protocol.Rule, n, maxRounds int64) engine.Config {
	cfg, _ := engine.AdversarialConfig(r, n, maxRounds)
	return cfg
}

// worstCaseTask builds the all-wrong instance for a rule.
func worstCaseTask(r *protocol.Rule, n int64, z int, maxRounds int64) engine.Config {
	return engine.Config{
		N:         n,
		Rule:      r,
		Z:         z,
		X0:        engine.WorstCaseInit(n, z),
		MaxRounds: maxRounds,
	}
}

// fmtRate renders a success rate with its Wilson interval.
func fmtRate(m measured) string {
	return fmtF(m.rate) + " [" + fmtF(m.rateLo) + "," + fmtF(m.rateHi) + "]"
}

func fmtF(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case math.IsInf(v, 1):
		return "inf"
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
