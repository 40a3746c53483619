package sim

import (
	"strings"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
)

// The standard obs implementations must satisfy the contracts they were
// written against, without either package importing the other.
var (
	_ Observer     = (*obs.RunObserver)(nil)
	_ engine.Probe = (*obs.Metrics)(nil)
)

// TestInstrumentedRunUnderFaults drives a Probe-instrumented, Observer-
// instrumented Run across the batched Parallel path and the Aggregated
// path under a fault schedule. Meant to run under -race: the probe and
// observer are shared by every worker goroutine of the pool, which is
// exactly the concurrent contract they promise.
func TestInstrumentedRunUnderFaults(t *testing.T) {
	sched := fault.Must(
		fault.ResetAt(3, 0.5, 0),
		fault.OmissionFor(5, 4, 0.3),
		fault.SourceCrashFor(2, 2),
	)
	for _, mode := range []Mode{Parallel, Aggregated} {
		t.Run(mode.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			probe := obs.NewMetrics(reg)
			var spans strings.Builder
			sw := obs.NewSpanWriter(&spans)
			task := Task{
				Name: "instrumented-" + mode.String(),
				Config: engine.Config{
					N:      256,
					Rule:   protocol.Minority(3),
					Z:      1,
					X0:     128,
					Faults: sched,
					Probe:  probe,
				},
				Mode:     mode,
				Replicas: 24,
				Seed:     99,
				Observer: obs.NewRunObserver(sw, reg),
			}
			out, err := Run(task, 8)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if c, f, _, _ := out.Counts(); f > 0 || c != task.Replicas {
				t.Fatalf("counts = %d completed, %d failed", c, f)
			}
			if err := sw.Close(); err != nil {
				t.Fatalf("spans: %v", err)
			}

			var wantRounds int64
			for _, r := range out.Results {
				wantRounds += r.Rounds
			}
			if got := probe.Rounds.Value(); got != wantRounds {
				t.Errorf("probe rounds = %d, want sum of Result.Rounds %d", got, wantRounds)
			}
			var wantActs int64
			for _, r := range out.Results {
				wantActs += r.Activations
			}
			if got := probe.Activations.Value(); got != wantActs {
				t.Errorf("probe activations = %d, want %d", got, wantActs)
			}
			if probe.FaultRounds.Value() == 0 {
				t.Error("no fault rounds observed despite an active schedule")
			}
			if got := reg.Counter("bitspread_replicas_total").Value(); got != int64(task.Replicas) {
				t.Errorf("observer replicas = %d, want %d", got, task.Replicas)
			}
			recoveries := reg.Counter("bitspread_recoveries_total").Value()
			if conv := int64(out.ConvergedCount()); recoveries != conv {
				t.Errorf("recoveries = %d, want converged count %d", recoveries, conv)
			}
			if n := strings.Count(spans.String(), `"ev":"replica_done"`); n != task.Replicas {
				t.Errorf("span file has %d replica_done lines, want %d", n, task.Replicas)
			}
		})
	}
}

// TestProbeDoesNotChangeResults pins the observer-neutrality contract at
// the sim level: the same task with and without instrumentation yields
// identical Results slices.
func TestProbeDoesNotChangeResults(t *testing.T) {
	base := Task{
		Name: "neutrality",
		Config: engine.Config{
			N:    512,
			Rule: protocol.Minority(3),
			Z:    1,
			X0:   256,
			Faults: fault.Must(
				fault.ResetAt(2, 0.25, 0),
			),
		},
		Mode:     Parallel,
		Replicas: 16,
		Seed:     7,
	}
	plain, err := Run(base, 4)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	instr := base
	instr.Config.Probe = obs.NewMetrics(reg)
	instr.Observer = obs.NewRunObserver(nil, reg)
	probed, err := Run(instr, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Results {
		if plain.Results[i] != probed.Results[i] {
			t.Fatalf("replica %d differs: plain=%+v probed=%+v",
				i, plain.Results[i], probed.Results[i])
		}
	}
}

// TestFaultRoundsCountPerReplica: bitspread_fault_rounds_total counts
// perturbed replica-rounds. In every Mode and at any worker count it equals
// the sum, over replicas, of the perturbed rounds each replica ran — how
// the pool batches replicas must not show through the counter.
func TestFaultRoundsCountPerReplica(t *testing.T) {
	sched := fault.Must(fault.ResetAt(2, 0.5, 0), fault.SourceCrashFor(4, 3))
	cfg := engine.Config{N: 128, Rule: protocol.Minority(3), Z: 1, X0: 64, MaxRounds: 10, Faults: sched}
	perturbed := func(rounds int64) (n int64) {
		for r := int64(1); r <= rounds; r++ {
			if sched.SourceOpinion(r, cfg.Z) != cfg.Z || sched.BoundaryAt(r) {
				n++
			}
		}
		return n
	}
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel, Aggregated} {
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			c := cfg
			c.Probe = obs.NewMetrics(reg)
			out, err := Run(Task{Name: "faults", Config: c, Mode: mode, Replicas: 8, Seed: 5}, workers)
			if err != nil {
				t.Fatalf("%v/workers=%d: %v", mode, workers, err)
			}
			var want int64
			for _, r := range out.Results {
				want += perturbed(r.Rounds)
			}
			if want == 0 {
				t.Fatalf("%v/workers=%d: no replica ran a perturbed round", mode, workers)
			}
			if got := reg.Counter("bitspread_fault_rounds_total").Value(); got != want {
				t.Errorf("%v/workers=%d: fault rounds = %d, want %d (perturbed rounds summed over replicas)",
					mode, workers, got, want)
			}
		}
	}
}
