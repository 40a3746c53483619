package engine_test

// Zero-fault equivalence guard and fault-path behavior for all four
// engines. These tests live in an external test package because
// internal/fault implements the engine's Perturber interface (fault →
// engine), so an in-package test importing fault would be an import cycle.

import (
	"fmt"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func voterCfg(n int64) engine.Config {
	return engine.Config{N: n, Rule: protocol.Voter(1), Z: 1, X0: n / 2}
}

// TestZeroFaultEquivalence: a nil Faults field, a nil *fault.Schedule and
// an empty schedule must leave every engine byte-identical — same stream
// consumption, same Result — to the unhooked code path. This is the
// contract that keeps every published table valid after the fault hooks.
func TestZeroFaultEquivalence(t *testing.T) {
	cfg := voterCfg(64)
	cfg.MaxRounds = 400
	faultless := []struct {
		name string
		set  func(*engine.Config)
	}{
		{"nil interface", func(c *engine.Config) { c.Faults = nil }},
		{"typed nil schedule", func(c *engine.Config) { c.Faults = (*fault.Schedule)(nil) }},
		{"empty schedule", func(c *engine.Config) { c.Faults = fault.Must() }},
	}
	type runFn struct {
		name string
		run  func(engine.Config, uint64) (engine.Result, error)
	}
	engines := []runFn{
		{"parallel", func(c engine.Config, seed uint64) (engine.Result, error) {
			return engine.RunParallel(c, rng.New(seed))
		}},
		{"sequential", func(c engine.Config, seed uint64) (engine.Result, error) {
			return engine.RunSequential(c, rng.New(seed))
		}},
		{"agent", func(c engine.Config, seed uint64) (engine.Result, error) {
			return engine.RunAgents(c, engine.AgentOptions{}, rng.New(seed))
		}},
		{"sharded", func(c engine.Config, seed uint64) (engine.Result, error) {
			return engine.RunAgents(c, engine.AgentOptions{Shards: 4}, rng.New(seed))
		}},
		{"batched", func(c engine.Config, seed uint64) (engine.Result, error) {
			rs, err := engine.RunParallelReplicas(c, []uint64{seed, seed + 1})
			if err != nil {
				return engine.Result{}, err
			}
			return rs[0], nil
		}},
	}
	for _, e := range engines {
		base := cfg
		base.Faults = nil
		want, err := e.run(base, 7)
		if err != nil {
			t.Fatalf("%s baseline: %v", e.name, err)
		}
		for _, fl := range faultless {
			c := cfg
			fl.set(&c)
			got, err := e.run(c, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.name, fl.name, err)
			}
			if got != want {
				t.Errorf("%s/%s: %+v != baseline %+v", e.name, fl.name, got, want)
			}
		}
	}
}

// TestBatchedFaultsMatchUnbatched: the batched count engine's fault path
// must reproduce RunParallel replica-for-replica — batching stays a pure
// evaluation-sharing transform under injected faults.
func TestBatchedFaultsMatchUnbatched(t *testing.T) {
	schedules := []*fault.Schedule{
		fault.Must(fault.ResetAt(4, 1, 0)),
		fault.Must(fault.ChurnAt(3, 0.5, 0.25)),
		fault.Must(fault.StubbornFor(2, 6, 0.3, 0)),
		fault.Must(fault.OmissionFor(2, 5, 0.5)),
		fault.Must(fault.SourceCrashFor(1, 6)),
		fault.Must(fault.SourceCrashFor(2, 4), fault.ResetAt(3, 0.8, 0), fault.OmissionFor(5, 3, 0.3)),
	}
	seeds := []uint64{11, 12, 13, 14, 15}
	for _, s := range schedules {
		cfg := voterCfg(48)
		cfg.X0 = 48 // start at consensus; the schedule is the disturbance
		cfg.Faults = s
		batch, err := engine.RunParallelReplicas(cfg, seeds)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i, seed := range seeds {
			want, err := engine.RunParallel(cfg, rng.New(seed))
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if batch[i] != want {
				t.Errorf("%v replica %d: batched %+v vs unbatched %+v", s, i, batch[i], want)
			}
		}
	}
}

// TestFaultRecoveryAcrossEngines: inject a total adversarial reset into a
// converged Voter instance and require every engine to re-converge — the
// measurable face of self-stabilization.
func TestFaultRecoveryAcrossEngines(t *testing.T) {
	const n = 48
	s := fault.Must(fault.ResetAt(5, 1, 0))
	cfg := voterCfg(n)
	cfg.X0 = n
	cfg.Faults = s
	runs := map[string]func() (engine.Result, error){
		"parallel": func() (engine.Result, error) { return engine.RunParallel(cfg, rng.New(3)) },
		"sequential": func() (engine.Result, error) {
			return engine.RunSequential(cfg, rng.New(3))
		},
		"agent": func() (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, rng.New(3))
		},
		"sharded": func() (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Shards: 3}, rng.New(3))
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Errorf("%s: did not recover from a full reset (%+v)", name, res)
			continue
		}
		if res.Rounds < s.Horizon() {
			t.Errorf("%s: converged at round %d before the horizon %d", name, res.Rounds, s.Horizon())
		}
		rec, ok := s.Recovery(res)
		if !ok || rec < 1 {
			t.Errorf("%s: recovery = %d,%v; a full reset must cost at least a round", name, rec, ok)
		}
	}
}

// TestConsensusNotCreditedBeforeHorizon: starting at consensus with a
// disturbance scheduled later, no engine may declare convergence at round
// 0 — the run must live through the schedule.
func TestConsensusNotCreditedBeforeHorizon(t *testing.T) {
	const n = 32
	cfg := voterCfg(n)
	cfg.X0 = n
	cfg.Faults = fault.Must(fault.ResetAt(6, 0.5, 0))
	res, err := engine.RunParallel(cfg, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 6 {
		t.Errorf("run ended at round %d, before the scheduled reset", res.Rounds)
	}
	if !res.Converged {
		t.Errorf("voter failed to recover: %+v", res)
	}
}

// TestOmissionFreezesDynamics: omission probability 1 keeps every opinion
// fixed, so the count is exactly X0 for the whole burst and nobody samples.
func TestOmissionFreezesDynamics(t *testing.T) {
	cfg := voterCfg(40)
	cfg.MaxRounds = 3
	cfg.Faults = fault.Must(fault.OmissionFor(1, 3, 1))
	res, err := engine.RunParallel(cfg, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCount != cfg.X0 {
		t.Errorf("count moved to %d under total omission", res.FinalCount)
	}
	if res.Activations != 0 {
		t.Errorf("%d activations under total omission, want 0", res.Activations)
	}
	agents, err := engine.RunAgents(cfg, engine.AgentOptions{}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if agents.FinalCount != cfg.X0 {
		t.Errorf("agent count moved to %d under total omission", agents.FinalCount)
	}
}

// TestEngineEquivalenceActivations: every parallel variant of the exact-law
// suite counts Result.Activations the same way, which that suite does not
// look at. An agent counts when it draws its samples, so two rounds at
// omission q = ½ book about 2·(n-1)·½ = n-1 activations per run.
func TestEngineEquivalenceActivations(t *testing.T) {
	const n, reps = 256, 300
	cfg := engine.Config{
		N: n, Rule: protocol.Minority(3), Z: 1, X0: n / 2,
		MaxRounds: 2, Faults: fault.Must(fault.OmissionFor(1, 2, 0.5)),
	}
	seeds := make([]uint64, reps)
	g := rng.New(99)
	for i := range seeds {
		seeds[i] = g.Uint64()
	}
	want := float64(n - 1)
	for _, v := range lawVariants() {
		if v.family != bodyFamily && v.family != shardedFamily {
			continue
		}
		res, err := v.run(cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, r := range res {
			sum += r.Activations
		}
		if m := float64(sum) / reps; m < 0.85*want || m > 1.15*want {
			t.Errorf("%s: mean activations %.1f, want ≈ %.1f", v.name, m, want)
		}
	}
}

// TestSourceCrashBlocksConsensus: while the source is down it holds the
// wrong opinion, so the correct consensus is unreachable during the
// window; the stubborn-wrong variant pins non-source agents instead.
func TestSourceCrashBlocksConsensus(t *testing.T) {
	const n = 32
	cfg := voterCfg(n)
	cfg.X0 = n
	p := &engine.Trajectory{}
	cfg.Probe = p
	cfg.Faults = fault.Must(fault.SourceCrashFor(1, 5))
	res, err := engine.RunParallel(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range p.Rounds {
		if tr <= 5 && p.Counts[i] == n {
			t.Errorf("full consensus at round %d while the source is down", tr)
		}
	}
	if !res.Converged {
		t.Errorf("voter failed to recover after source restart: %+v", res)
	}
}

// TestStubbornWindowThenRecovery: a pinned wrong minority prevents the
// correct consensus while active; once released, Voter recovers.
func TestStubbornWindowThenRecovery(t *testing.T) {
	const n = 40
	cfg := voterCfg(n)
	cfg.X0 = n
	cfg.Faults = fault.Must(fault.StubbornFor(2, 8, 0.25, 0))
	p := &engine.Trajectory{}
	cfg.Probe = p
	res, err := engine.RunParallel(cfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range p.Rounds {
		if tr >= 2 && tr <= 9 && p.Counts[i] == n {
			t.Errorf("consensus at round %d despite a pinned wrong minority", tr)
		}
	}
	if !res.Converged {
		t.Errorf("voter failed to recover after stubborn release: %+v", res)
	}
}

// TestShardedFaultDeterminism: the sharded agent engine under faults stays
// a pure function of (seed, shards).
func TestShardedFaultDeterminism(t *testing.T) {
	cfg := voterCfg(64)
	cfg.X0 = 64
	cfg.Faults = fault.Must(fault.ChurnAt(3, 0.5, 0.5), fault.OmissionFor(4, 3, 0.25))
	a, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: 4}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: 4}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same (seed, shards) diverged: %+v vs %+v", a, b)
	}
}

// TestHaltInterruptsEngines: a Halt that fires immediately stops every
// engine at the first boundary with the partial result flagged.
func TestHaltInterruptsEngines(t *testing.T) {
	cfg := voterCfg(32)
	cfg.Halt = func() bool { return true }
	checks := map[string]func() (engine.Result, error){
		"parallel":   func() (engine.Result, error) { return engine.RunParallel(cfg, rng.New(1)) },
		"sequential": func() (engine.Result, error) { return engine.RunSequential(cfg, rng.New(1)) },
		"agent": func() (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, rng.New(1))
		},
		"sharded": func() (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Shards: 2}, rng.New(1))
		},
	}
	for name, run := range checks {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Interrupted {
			t.Errorf("%s: halt ignored (%+v)", name, res)
		}
		if res.Converged || res.Rounds != 0 {
			t.Errorf("%s: interrupted run claims progress (%+v)", name, res)
		}
	}
	rs, err := engine.RunParallelReplicas(cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Interrupted {
			t.Errorf("batched replica %d: halt ignored (%+v)", i, r)
		}
	}
}

// TestHaltMidRunKeepsPartialTrajectory: halting after k rounds reports the
// trajectory up to k, unconverged and flagged, in every engine and in both
// replica runners.
func TestHaltMidRunKeepsPartialTrajectory(t *testing.T) {
	const k = 5
	cfg := voterCfg(64)
	cfg.MaxRounds = 1 << 40 // halt, not the cap, must end the run
	haltAfterK := func(c engine.Config) engine.Config {
		polls := 0
		c.Halt = func() bool { polls++; return polls > k }
		return c
	}
	check := func(name string, res engine.Result) {
		t.Helper()
		if res.Converged && res.Interrupted {
			t.Fatalf("%s: result both converged and interrupted: %+v", name, res)
		}
		if !res.Converged && (!res.Interrupted || res.Rounds != k) {
			t.Errorf("%s: halt after %d rounds gave %+v", name, k, res)
		}
	}
	agents := func(opts engine.AgentOptions) func(engine.Config, *rng.RNG) (engine.Result, error) {
		return func(c engine.Config, g *rng.RNG) (engine.Result, error) { return engine.RunAgents(c, opts, g) }
	}
	solo := []struct {
		name string
		run  func(engine.Config, *rng.RNG) (engine.Result, error)
	}{
		{"parallel", engine.RunParallel},
		{"sequential", engine.RunSequential},
		{"literal", agents(engine.AgentOptions{Unpacked: true})},
		{"packed", agents(engine.AgentOptions{})},
		{"packed-sharded", agents(engine.AgentOptions{Shards: 2})},
	}
	for _, e := range solo {
		res, err := e.run(haltAfterK(cfg), rng.New(2))
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		check(e.name, res)
	}
	seeds := []uint64{2, 3, 4}
	rs, err := engine.RunParallelReplicas(haltAfterK(cfg), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rs {
		check(fmt.Sprintf("parallel replica %d", i), res)
	}
	rs, err = engine.RunAgentsReplicas(haltAfterK(cfg), engine.AgentOptions{Shards: 2}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range rs {
		check(fmt.Sprintf("agent replica %d", i), res)
	}
}
