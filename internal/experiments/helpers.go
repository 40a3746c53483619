package experiments

import (
	"context"
	"math"
	"strconv"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
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

// halted reports whether a hand-rolled step loop must stop at its 1-based
// round t because ctx is done. It reads the context on a replica's first
// round and every 1024th round after, so a cancelled run stops within
// 1024 rounds while the hot loop pays a mask test per round, not a
// context read.
func halted(ctx context.Context, t int64) bool {
	return t&1023 == 1 && ctx.Err() != nil
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

// measure runs replicas of the given configuration and aggregates. It
// honours opts.Ctx (cancellation surfaces as the context error) and
// checkpoints finished replicas into opts.Journal when one is set.
func measure(opts Options, name string, cfg engine.Config, mode sim.Mode, replicas int, salt uint64) (measured, error) {
	if opts.Probe != nil {
		cfg.Probe = opts.Probe
	}
	out, err := sim.RunContext(opts.ctx(), sim.Task{
		Name:     name,
		Config:   cfg,
		Mode:     mode,
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
