package vm_test

// Engine-level equivalence: every builtin rule, compiled to bytecode and
// materialized back, must produce byte-identical engine.Results and
// round trajectories to its native form — across all eight engine
// variants, three seeds, and a fault schedule touching every family.
// This is the acceptance bar for the VM's fixed-point story: Q2.61
// conversion moves no bits on any probability a builtin table contains.

import (
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/vm"
)

func equivalenceSchedule(t *testing.T) *fault.Schedule {
	t.Helper()
	s, err := fault.New(
		fault.ResetAt(2, 0.5, 0),
		fault.StubbornFor(3, 2, 0.25, 1),
		fault.OmissionFor(6, 2, 0.5),
		fault.SourceCrashFor(9, 2),
		fault.ChurnAt(12, 0.25, 0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func engineVariants() map[string]func(engine.Config, *rng.RNG) (engine.Result, error) {
	return map[string]func(engine.Config, *rng.RNG) (engine.Result, error){
		"count": engine.RunParallel,
		"sequential": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunSequential(cfg, g)
		},
		"literal": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Unpacked: true}, g)
		},
		"packed": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, g)
		},
		"sharded-packed": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Shards: 4}, g)
		},
		"chunked": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Chunked: true}, g)
		},
		"sharded-chunked": func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{Chunked: true, Shards: 4}, g)
		},
	}
}

// compiledBuiltins pairs every builtin with its bytecode round-trip.
func compiledBuiltins(t *testing.T) []*protocol.Rule {
	t.Helper()
	return []*protocol.Rule{
		protocol.Voter(1),
		protocol.Voter(3),
		protocol.Minority(3),
		protocol.Majority(5),
		protocol.ThreeMajority(),
		protocol.TwoChoice(),
		protocol.AntiVoter(2),
		protocol.BiasedVoter(3, 0.125),
		protocol.Constant(2, 0.375),
		protocol.LazyVoter(3, 0.25),
		protocol.Follower(3, 2),
	}
}

// roundTrip compiles a rule to bytecode and materializes it back,
// asserting the tables come back bit-identical.
func roundTrip(t *testing.T, r *protocol.Rule) *protocol.Rule {
	t.Helper()
	prog, err := vm.Compile(r)
	if err != nil {
		t.Fatalf("Compile(%s): %v", r, err)
	}
	// Round the program through the wire encoding too, as the service does.
	decoded, err := vm.Decode(prog.Encode())
	if err != nil {
		t.Fatalf("Decode(Encode(%s)): %v", r, err)
	}
	back, err := decoded.Materialize(vm.EvalLimits{})
	if err != nil {
		t.Fatalf("Materialize(%s): %v", r, err)
	}
	wantG0, wantG1 := r.Tables()
	gotG0, gotG1 := back.Tables()
	for k := range wantG0 {
		//bitlint:floatexact the VM round-trip contract is bit-exact table reproduction
		if gotG0[k] != wantG0[k] || gotG1[k] != wantG1[k] {
			t.Fatalf("%s: table moved at k=%d: g0 %v->%v, g1 %v->%v",
				r, k, wantG0[k], gotG0[k], wantG1[k], gotG1[k])
		}
	}
	return back
}

func TestCompiledBuiltinsByteIdenticalAcrossEngines(t *testing.T) {
	sched := equivalenceSchedule(t)

	run := func(f func(engine.Config, *rng.RNG) (engine.Result, error),
		r *protocol.Rule, seed uint64) (engine.Result, []int64) {
		var traj []int64
		cfg := engine.Config{
			N:         256,
			Rule:      r,
			Z:         1,
			X0:        96,
			MaxRounds: 48,
			Faults:    sched,
			Record:    func(round, count int64) { traj = append(traj, count) },
		}
		res, err := f(cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res, traj
	}

	for _, native := range compiledBuiltins(t) {
		compiled := roundTrip(t, native)
		t.Run(native.String(), func(t *testing.T) {
			for name, f := range engineVariants() {
				for _, seed := range []uint64{1, 0xDEADBEEF, 1 << 40} {
					resN, trajN := run(f, native, seed)
					resC, trajC := run(f, compiled, seed)
					if resN != resC {
						t.Fatalf("%s seed %#x: Results differ:\n  native:   %+v\n  compiled: %+v",
							name, seed, resN, resC)
					}
					if len(trajN) != len(trajC) {
						t.Fatalf("%s seed %#x: trajectory lengths differ: %d vs %d",
							name, seed, len(trajN), len(trajC))
					}
					for i := range trajN {
						if trajN[i] != trajC[i] {
							t.Fatalf("%s seed %#x: trajectories diverge at round %d: %d vs %d",
								name, seed, i+1, trajN[i], trajC[i])
						}
					}
					if resN.Rounds == 0 || len(trajN) == 0 {
						t.Fatalf("%s seed %#x: degenerate run proves nothing", name, seed)
					}
				}
			}
		})
	}
}

// TestHandAssembledVoterMatchesBuiltin closes the loop from source text:
// a Voter written in assembly (frac; halt — no table) materializes to the
// builtin's exact tables.
func TestHandAssembledVoterMatchesBuiltin(t *testing.T) {
	prog, err := vm.Assemble("name Voter\nell 3\nfrac\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := prog.Materialize(vm.EvalLimits{})
	if err != nil {
		t.Fatal(err)
	}
	wantG0, wantG1 := protocol.Voter(3).Tables()
	gotG0, gotG1 := r.Tables()
	for k := range wantG0 {
		//bitlint:floatexact k/ℓ for ℓ=3 is exact in both Q2.61 and float64's nearest-rounding, bit for bit
		if gotG0[k] != wantG0[k] || gotG1[k] != wantG1[k] {
			t.Fatalf("k=%d: %v/%v vs builtin %v/%v", k, gotG0[k], gotG1[k], wantG0[k], wantG1[k])
		}
	}
}
