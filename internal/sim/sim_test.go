package sim

import (
	"fmt"
	"reflect"
	"testing"

	"bitspread/internal/engine"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

func voterTask(replicas int, seed uint64) Task {
	return Task{
		Name: "voter",
		Config: engine.Config{
			N:    48,
			Rule: protocol.Voter(1),
			Z:    1,
			X0:   24,
		},
		Mode:     Parallel,
		Replicas: replicas,
		Seed:     seed,
	}
}

func TestRunAggregates(t *testing.T) {
	out, err := Run(voterTask(40, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 40 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if out.ConvergedCount() != 40 {
		t.Errorf("converged = %d of 40", out.ConvergedCount())
	}
	rate, lo, hi := out.SuccessRate()
	if rate != 1 || lo <= 0.8 || hi != 1 {
		t.Errorf("success rate = %v [%v, %v]", rate, lo, hi)
	}
	rounds := out.ConvergenceRounds()
	if len(rounds) != 40 {
		t.Fatalf("rounds = %d entries", len(rounds))
	}
	s := out.RoundsSummary()
	if s.N != 40 || s.Mean <= 0 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel} {
		task := voterTask(20, 7)
		task.Mode = mode
		a, err := Run(task, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(task, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Results, b.Results) {
			t.Errorf("%v: results depend on worker count", mode)
		}
		task.Seed = 8
		c, err := Run(task, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Results, c.Results) {
			t.Errorf("%v: different seeds produced identical results", mode)
		}
	}
}

// TestParallelBatchingPreservesResults: the batched lockstep path behind
// Parallel mode must reproduce, replica for replica, exactly what the
// historical one-goroutine-per-replica path produced — i.e. RunParallel on
// the task's derived seeds. This is the guarantee that published sweep
// numbers are unchanged by the caching engine.
func TestParallelBatchingPreservesResults(t *testing.T) {
	task := voterTask(25, 11)
	out, err := Run(task, 4)
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(task.Seed)
	for i := 0; i < task.Replicas; i++ {
		seed := master.Uint64()
		want, err := engine.RunParallel(task.Config, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if out.Results[i] != want {
			t.Errorf("replica %d: batched %+v vs unbatched %+v", i, out.Results[i], want)
		}
	}
}

// TestAgentBatchingPreservesResults: the lockstep path behind AgentLevel
// mode must reproduce, replica for replica, exactly what per-replica
// RunAgents on the task's derived seeds produces — the agent-level
// counterpart of the Parallel-mode guarantee above.
func TestAgentBatchingPreservesResults(t *testing.T) {
	task := voterTask(25, 11)
	task.Mode = AgentLevel
	out, err := Run(task, 4)
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(task.Seed)
	for i := 0; i < task.Replicas; i++ {
		seed := master.Uint64()
		want, err := engine.RunAgents(task.Config, engine.AgentOptions{}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if out.Results[i] != want {
			t.Errorf("replica %d: batched %+v vs unbatched %+v", i, out.Results[i], want)
		}
	}
}

// TestAgentBatchWidthBoundsWork: a task of long runs is split into
// batches that each checkpoint, while a short huge-n batch keeps its
// replicas together.
func TestAgentBatchWidthBoundsWork(t *testing.T) {
	for _, c := range []struct {
		n, rounds int64
		lo, hi    int
	}{
		{2048, 60000, 1, 2},   // bitspreadd's kill-test job: 60 replicas, 30+ batches
		{1 << 20, 4, 4, 64},   // the benchmark's agents workload
		{1 << 30, 1, 1, 1},    // memory-bound
		{48, 0, 100, 1 << 20}, // the default round cap
	} {
		w := agentBatchWidth(engine.Config{N: c.n, MaxRounds: c.rounds})
		if w < c.lo || w > c.hi {
			t.Errorf("n=%d rounds=%d: width %d, want [%d, %d]", c.n, c.rounds, w, c.lo, c.hi)
		}
	}
}

// TestBatchesSplitEvenly: every worker gets a batch, no batch exceeds its
// width, and a Parallel task (no width limit) is cut into the contiguous
// per-worker chunks RunParallelReplicas has always been handed.
func TestBatchesSplitEvenly(t *testing.T) {
	for _, c := range []struct {
		pending, workers, width int
		want                    string
	}{
		{10, 4, 10, "[[0 1] [2 3 4] [5 6] [7 8 9]]"}, // Parallel
		{3, 8, 3, "[[0] [1] [2]]"},                   // more workers than replicas
		{4, 2, 64, "[[0 1] [2 3]]"},                  // the benchmark's agents workload
		{5, 2, 2, "[[0] [1 2] [3 4]]"},               // AgentLevel capped by width
		{3, 2, 1, "[[0] [1] [2]]"},                   // Sequential
		{0, 2, 1, "[]"},
	} {
		pending := make([]int, c.pending)
		for i := range pending {
			pending[i] = i
		}
		if got := fmt.Sprint(batches(pending, c.workers, c.width)); got != c.want {
			t.Errorf("batches(%d pending, %d workers, width %d) = %s, want %s", c.pending, c.workers, c.width, got, c.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	task := voterTask(0, 1)
	if _, err := Run(task, 1); err == nil {
		t.Error("0 replicas accepted")
	}
	task = voterTask(2, 1)
	task.Mode = Mode(99)
	if _, err := Run(task, 1); err == nil {
		t.Error("unknown mode accepted")
	}
	task = voterTask(2, 1)
	task.Config.N = 0
	if _, err := Run(task, 1); err == nil {
		t.Error("invalid engine config accepted")
	}
}

func TestRunSequentialAndAgentModes(t *testing.T) {
	for _, mode := range []Mode{Sequential, AgentLevel} {
		task := voterTask(5, 3)
		task.Mode = mode
		task.Config.N = 24
		task.Config.X0 = 12
		out, err := Run(task, 2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if out.ConvergedCount() != 5 {
			t.Errorf("%v: converged %d of 5", mode, out.ConvergedCount())
		}
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Parallel, Sequential, AgentLevel, Mode(42)} {
		if m.String() == "" {
			t.Errorf("empty name for mode %d", int(m))
		}
	}
}

func TestSuccessRatePartial(t *testing.T) {
	// Majority from all-wrong never converges: success rate 0.
	task := Task{
		Name: "majority-trap",
		Config: engine.Config{
			N:         32,
			Rule:      protocol.Majority(3),
			Z:         1,
			X0:        1,
			MaxRounds: 50,
		},
		Mode:     Parallel,
		Replicas: 10,
		Seed:     5,
	}
	out, err := Run(task, 4)
	if err != nil {
		t.Fatal(err)
	}
	rate, _, hi := out.SuccessRate()
	if rate != 0 {
		t.Errorf("success rate = %v, want 0", rate)
	}
	if hi >= 0.5 {
		t.Errorf("Wilson hi = %v, too loose", hi)
	}
	if len(out.ConvergenceRounds()) != 0 {
		t.Error("non-converged runs leaked into ConvergenceRounds")
	}
}
