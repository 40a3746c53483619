package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fault"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
)

// panicPerturber implements engine.Perturber through a real fault schedule
// but panics inside PerturbCount at its trigger round. Injecting the panic
// through the Perturber hook exercises the exact code path a buggy fault
// model (or rule table) would take — no stubbed engines involved.
type panicPerturber struct {
	*fault.Schedule
	round int64
}

func (p *panicPerturber) PerturbCount(t, n int64, src int, x int64, g *rng.RNG) int64 {
	if t == p.round {
		panic("injected replica fault")
	}
	return p.Schedule.PerturbCount(t, n, src, x, g)
}

func (p *panicPerturber) PerturbAgents(t int64, ops []uint8, g *rng.RNG) {
	if t == p.round {
		panic("injected replica fault")
	}
	p.Schedule.PerturbAgents(t, ops, g)
}

func newPanicPerturber(round int64) *panicPerturber {
	return &panicPerturber{Schedule: fault.Must(fault.ResetAt(round, 0.5, 0)), round: round}
}

func TestPanickingReplicaIsRecorded(t *testing.T) {
	for _, mode := range []Mode{Parallel, Sequential, AgentLevel} {
		task := voterTask(6, 3)
		task.Mode = mode
		task.Config.Faults = newPanicPerturber(2)
		out, err := RunContext(context.Background(), task, 3, nil)
		if err != nil {
			t.Fatalf("%v: a replica panic must not fail the task: %v", mode, err)
		}
		completed, failed, cancelled, timedOut := out.Counts()
		if failed != 6 || completed != 0 || cancelled != 0 || timedOut != 0 {
			t.Errorf("%v: counts = %d,%d,%d,%d; want all 6 failed", mode, completed, failed, cancelled, timedOut)
		}
		if len(out.Failures) != 6 {
			t.Fatalf("%v: %d failures recorded", mode, len(out.Failures))
		}
		for _, f := range out.Failures {
			if !strings.Contains(f.Err.Error(), "injected replica fault") {
				t.Errorf("%v: failure lost the recovered panic value: %v", mode, f.Err)
			}
		}
	}
}

// evenPanicPerturber panics at its trigger round in the replicas whose
// one-count there is even, and applies its schedule in the others.
type evenPanicPerturber struct{ *panicPerturber }

func (p evenPanicPerturber) PerturbCount(t, n int64, src int, x int64, g *rng.RNG) int64 {
	if t == p.round && x%2 != 0 {
		return p.Schedule.PerturbCount(t, n, src, x, g)
	}
	return p.panicPerturber.PerturbCount(t, n, src, x, g)
}

func (p evenPanicPerturber) PerturbAgents(t int64, ops []uint8, g *rng.RNG) {
	x := 0
	for _, o := range ops {
		x += int(o)
	}
	if t == p.round && x%2 != 0 {
		p.Schedule.PerturbAgents(t, ops, g)
		return
	}
	p.panicPerturber.PerturbAgents(t, ops, g)
}

// TestBatchPanicLosesOnlyItsReplica: a replica that panics inside a
// lockstep batch is Failed, and every other replica of the batch is Done
// with exactly its solo run's Result.
func TestBatchPanicLosesOnlyItsReplica(t *testing.T) {
	solo := map[Mode]func(engine.Config, *rng.RNG) (engine.Result, error){
		Parallel: engine.RunParallel,
		AgentLevel: func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, g)
		},
	}
	for _, mode := range []Mode{Parallel, AgentLevel} {
		task := voterTask(16, 5)
		task.Mode = mode
		task.Config.Faults = evenPanicPerturber{newPanicPerturber(2)}
		out, err := RunContext(context.Background(), task, 2, nil)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		master := rng.New(task.Seed)
		var done, failed int
		for i := 0; i < task.Replicas; i++ {
			want, panicked := runSolo(solo[mode], task.Config, master.Uint64())
			state := Done
			if out.States != nil {
				state = out.States[i]
			}
			switch {
			case panicked && state == Failed:
				failed++
			case !panicked && state == Done && out.Results[i] == want:
				done++
			default:
				t.Errorf("%v replica %d: state %v result %+v; solo run panicked=%v result %+v",
					mode, i, state, out.Results[i], panicked, want)
			}
		}
		if done == 0 || failed == 0 {
			t.Errorf("%v: %d done and %d failed replicas, want some of each", mode, done, failed)
		}
		if len(out.Failures) != failed {
			t.Errorf("%v: %d failures recorded for %d failed replicas", mode, len(out.Failures), failed)
		}
	}
}

// runSolo runs one replica alone and reports whether it panicked.
func runSolo(run func(engine.Config, *rng.RNG) (engine.Result, error), cfg engine.Config, seed uint64) (res engine.Result, panicked bool) {
	defer func() {
		if recover() != nil {
			res, panicked = engine.Result{}, true
		}
	}()
	res, _ = run(cfg, rng.New(seed))
	return res, false
}

func TestCancelledContextReturnsPartialOutcome(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := RunContext(ctx, voterTask(8, 1), 4, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out.Results) != 8 || len(out.States) != 8 {
		t.Fatalf("partial outcome missing results/states: %d/%d", len(out.Results), len(out.States))
	}
	_, _, cancelled, _ := out.Counts()
	if cancelled != 8 {
		t.Errorf("cancelled = %d of 8", cancelled)
	}
	for i, r := range out.Results {
		if r.Converged || !r.Interrupted {
			t.Errorf("replica %d: %+v is not a flagged partial result", i, r)
		}
	}
}

func TestDeadlineStopsLongTaskPromptly(t *testing.T) {
	// Majority from the all-wrong trap never converges, and the round
	// budget below is astronomically beyond test time — only the deadline
	// can end this run.
	task := Task{
		Name: "deadline",
		Config: engine.Config{
			N:         4096,
			Rule:      protocol.Majority(3),
			Z:         1,
			X0:        1,
			MaxRounds: 1 << 40,
		},
		Mode:     Parallel,
		Replicas: 4,
		Seed:     9,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out, err := RunContext(ctx, task, 2, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	_, _, _, timedOut := out.Counts()
	if timedOut != 4 {
		t.Errorf("timed out = %d of 4 (states %v)", timedOut, out.States)
	}
}

func TestCleanRunHasNilStates(t *testing.T) {
	out, err := RunContext(context.Background(), voterTask(5, 2), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.States != nil || out.Failures != nil {
		t.Errorf("clean run carries states %v failures %v", out.States, out.Failures)
	}
	completed, _, _, _ := out.Counts()
	if completed != 5 {
		t.Errorf("completed = %d of 5", completed)
	}
}

func TestJournalResumeMatchesUninterruptedRun(t *testing.T) {
	task := voterTask(20, 13)
	want, err := Run(task, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a sweep killed after 7 replicas: a journal holding only a
	// prefix of the work.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	key := TaskKey(task)
	for i := 0; i < 7; i++ {
		if err := j.Record(key, i, want.Results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: the finished prefix must be served from the checkpoint and
	// the remainder recomputed, landing on the exact same table.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 7 {
		t.Fatalf("resumed journal holds %d replicas, want 7", j2.Len())
	}
	got, err := RunContext(context.Background(), task, 4, j2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Error("resumed run differs from uninterrupted run")
	}
	if j2.Len() != task.Replicas {
		t.Errorf("journal holds %d replicas after resume, want %d", j2.Len(), task.Replicas)
	}
}

func TestJournalServesCheckpointsVerbatim(t *testing.T) {
	// A sentinel result planted in the journal must surface unchanged in
	// the outcome — proof the checkpointed replica was not recomputed.
	task := voterTask(3, 5)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sentinel := engine.Result{Converged: true, Rounds: 123456, FinalCount: 7}
	if err := j.Record(TaskKey(task), 1, sentinel); err != nil {
		t.Fatal(err)
	}
	out, err := RunContext(context.Background(), task, 2, j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[1] != sentinel {
		t.Errorf("replica 1 = %+v, want the journal sentinel", out.Results[1])
	}
}

// TestJournalToleratesTornFinalLine: a torn final line — cut off mid-line,
// or a whole corrupt line as power loss leaves when a line's pages persist
// out of order — is dropped and cut off the file, so the checkpoint
// recorded after reopening survives every later reopen.
func TestJournalToleratesTornFinalLine(t *testing.T) {
	for _, tail := range []string{
		`{"task":"k","replica":1,"resu`,
		"\x00\x00\x00\x00\x00\x00\x00\x00" + `replica":1,"result":{}}` + "\n",
	} {
		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record("k", 0, engine.Result{Converged: true, Rounds: 9}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		// A kill or a power loss mid-write leaves a torn trailing line.
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		// Reopen, record the torn replica again, reopen twice: the
		// acknowledged checkpoint must survive both.
		for round, want := range []int{1, 2, 2} {
			j, err := OpenJournal(path, true)
			if err != nil {
				t.Fatalf("tail %q, reopen %d: %v", tail, round, err)
			}
			if r, ok := j.Lookup("k", 0); !ok || r.Rounds != 9 {
				t.Errorf("tail %q, reopen %d: intact entry lost: %+v %v", tail, round, r, ok)
			}
			if j.Len() != want {
				t.Errorf("tail %q, reopen %d: %d entries, want %d", tail, round, j.Len(), want)
			}
			if round == 0 {
				if _, ok := j.Lookup("k", 1); ok {
					t.Errorf("tail %q: torn entry resurrected", tail)
				}
				if err := j.Record("k", 1, engine.Result{Rounds: 11}); err != nil {
					t.Fatal(err)
				}
			} else if r, ok := j.Lookup("k", 1); !ok || r.Rounds != 11 {
				t.Errorf("tail %q, reopen %d: checkpoint recorded after the torn tail lost: %+v %v", tail, round, r, ok)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, []byte("garbage\n{\"task\":\"k\",\"replica\":0,\"result\":{}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, true); err == nil {
		t.Error("corruption before the final line accepted")
	}
}

func TestJournalResumeMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("resuming with no prior journal must start clean: %v", err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Errorf("fresh journal holds %d entries", j.Len())
	}
}

func TestTaskKeyDiscriminates(t *testing.T) {
	base := voterTask(10, 1)
	key := TaskKey(base)
	if !strings.HasPrefix(key, "voter#") {
		t.Errorf("key %q lost the task name", key)
	}

	same := base
	same.Replicas = 500 // deliberately excluded: journals are prefix-reusable
	if TaskKey(same) != key {
		t.Error("replica count changed the key")
	}

	variants := []func(*Task){
		func(t *Task) { t.Seed = 2 },
		func(t *Task) { t.Mode = Sequential },
		func(t *Task) { t.Config.N = 12 },
		func(t *Task) { t.Config.X0 = 3 },
		func(t *Task) { t.Config.Faults = fault.Must(fault.ResetAt(3, 1, 0)) },
	}
	for i, mutate := range variants {
		v := base
		mutate(&v)
		if TaskKey(v) == key {
			t.Errorf("variant %d shares the base key", i)
		}
	}

	withFaults := base
	withFaults.Config.Faults = fault.Must(fault.ResetAt(3, 1, 0))
	other := base
	other.Config.Faults = fault.Must(fault.ResetAt(4, 1, 0))
	if TaskKey(withFaults) == TaskKey(other) {
		t.Error("different schedules share a key")
	}
	empty := base
	empty.Config.Faults = fault.Must()
	if TaskKey(empty) != key {
		t.Error("an empty schedule changed the key despite being a no-op")
	}
}

// TestTaskKeyPinsModes pins the key of one fixed task per mode. TaskKey
// hashes the mode's number, and journals and job IDs are addressed by the
// key, so renumbering a Mode would orphan every result written before.
func TestTaskKeyPinsModes(t *testing.T) {
	task := Task{Name: "pin", Config: engine.Config{N: 48, Rule: protocol.Voter(1), Z: 1, X0: 24}, Seed: 1}
	for mode, want := range map[Mode]string{
		Parallel:   "pin#deab34572d939ac7",
		Sequential: "pin#6bd39e1720019c1a",
		AgentLevel: "pin#05f004f5ad82bd91",
	} {
		task.Mode = mode
		if got := TaskKey(task); got != want {
			t.Errorf("%v: TaskKey = %s, want %s", mode, got, want)
		}
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if _, ok := j.Lookup("k", 0); ok {
		t.Error("nil journal found an entry")
	}
	if err := j.Record("k", 0, engine.Result{}); err != nil {
		t.Error(err)
	}
	if err := j.Close(); err != nil {
		t.Error(err)
	}
	if j.Len() != 0 {
		t.Error("nil journal non-empty")
	}
}

func TestReplicaStateStrings(t *testing.T) {
	for _, s := range []ReplicaState{Done, Failed, Cancelled, TimedOut, ReplicaState(42)} {
		if s.String() == "" {
			t.Errorf("empty name for state %d", int(s))
		}
	}
}
