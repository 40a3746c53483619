// Package sim is the Monte-Carlo experiment runner: it fans a configured
// bit-dissemination instance out over seeded replicas on a bounded worker
// pool and aggregates convergence statistics. Replica seeds are derived
// deterministically from the task seed before any goroutine starts, so
// results are reproducible regardless of scheduling.
//
// The runner is hardened for long unattended sweeps: RunContext threads a
// context.Context through every engine as a round-boundary halt check, a
// replica that panics is recorded as Failed instead of killing the
// process, and an optional Journal checkpoints every finished replica so
// an interrupted sweep resumes where it stopped.
package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bitspread/internal/dist"
	"bitspread/internal/engine"
	"bitspread/internal/rng"
	"bitspread/internal/stats"
)

// Mode selects the activation model / engine for a task. TaskKey hashes
// the numeric value, so a mode keeps its number for as long as journals
// and job IDs written with it must resume.
type Mode int

const (
	// Parallel uses the exact count-level parallel engine.
	Parallel Mode = iota + 1
	// Sequential uses the one-activation-at-a-time engine.
	Sequential
	// AgentLevel uses the literal per-agent parallel engine.
	AgentLevel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Sequential:
		return "sequential"
	case AgentLevel:
		return "agent-level"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Task is one Monte-Carlo experiment: a single instance configuration run
// over Replicas independent seeds.
type Task struct {
	Name     string
	Config   engine.Config
	Mode     Mode
	Replicas int
	Seed     uint64
	// Observer, if non-nil, receives the task's run-level lifecycle
	// events (replica start/finish, checkpoint, recovery). Like
	// Config.Probe, which every worker's runs share, it must be safe for
	// concurrent use and never affects results; it is excluded from
	// TaskKey, so journal resume is unchanged by attaching one.
	Observer Observer
}

// Observer receives run-level lifecycle events from RunContext. The
// method set uses only primitive argument types so implementations
// (internal/obs.RunObserver is the standard one) need not import sim.
// All methods may be called concurrently from the worker pool.
type Observer interface {
	// ReplicaStart fires when a replica is handed to an engine (replicas
	// served from the journal never start).
	ReplicaStart(task string, replica int)
	// ReplicaDone fires when a replica finishes, with its round count,
	// convergence flag and terminal ReplicaState string.
	ReplicaDone(task string, replica int, rounds int64, converged bool, state string)
	// Checkpoint fires after a replica's result is flushed to the journal.
	Checkpoint(task string, replica int)
	// Recovery fires when a replica of a fault-injected task converges:
	// rounds is how many rounds past the schedule's horizon consensus was
	// re-reached — the self-stabilization delay.
	Recovery(task string, replica int, rounds int64)
}

// ReplicaState classifies how one replica of a task ended.
type ReplicaState uint8

const (
	// Done means the replica ran to its natural end (consensus or round
	// cap) and its Result is a completed measurement.
	Done ReplicaState = iota
	// Failed means the replica panicked or returned an engine error; its
	// Result is the zero value and the cause is in Outcome.Failures.
	Failed
	// Cancelled means the context was cancelled before the replica
	// finished; its Result holds the partial trajectory.
	Cancelled
	// TimedOut is Cancelled where the cause was a context deadline.
	TimedOut
	// Skipped means the replica belongs to another partition of a
	// multi-process sweep (the journal's PartitionFunc does not own it)
	// and was neither computed nor served from the checkpoint; its Result
	// is the zero value. Merging the partitions' journals recovers every
	// skipped replica exactly.
	Skipped
)

// String implements fmt.Stringer.
func (s ReplicaState) String() string {
	switch s {
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case TimedOut:
		return "timed-out"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("ReplicaState(%d)", int(s))
	}
}

// ReplicaFailure records why one replica failed.
type ReplicaFailure struct {
	// Replica is the index of the failed replica within the task.
	Replica int
	// Err is the engine error, or a wrapped panic value.
	Err error
}

// Outcome aggregates the replica results of a task.
type Outcome struct {
	Task    Task
	Results []engine.Result
	// States classifies each replica; nil when every replica completed,
	// so fully-successful outcomes stay comparable across versions.
	States []ReplicaState
	// Failures lists the causes of Failed replicas, in replica order.
	Failures []ReplicaFailure
}

// Counts tallies the replica states. completed + failed + cancelled +
// timedOut + the number of Skipped replicas always equals len(Results);
// outside partitioned runs none is Skipped and the four-way sum holds.
func (o *Outcome) Counts() (completed, failed, cancelled, timedOut int) {
	if o.States == nil {
		return len(o.Results), 0, 0, 0
	}
	for _, s := range o.States {
		switch s {
		case Failed:
			failed++
		case Cancelled:
			cancelled++
		case TimedOut:
			timedOut++
		case Skipped:
		default:
			completed++
		}
	}
	return
}

// Run executes the task's replicas on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). Run never cancels and keeps no
// checkpoint; it is RunContext with a background context and no journal.
func Run(t Task, workers int) (Outcome, error) {
	return RunContext(context.Background(), t, workers, nil)
}

// RunContext executes the task's replicas on at most workers goroutines,
// honouring ctx and checkpointing into journal (both optional).
//
// Cancellation is polled by every engine at round boundaries, so workers
// stop within one round of ctx ending; the partial Outcome classifies the
// unfinished replicas as Cancelled (or TimedOut when the context died of
// its deadline) and RunContext returns it together with ctx.Err().
//
// A replica that panics does not kill the process: the panic is recovered,
// the replica is marked Failed and the cause recorded in
// Outcome.Failures, and the remaining replicas keep running.
//
// With a non-nil journal, replicas already checkpointed under this task's
// TaskKey are served from the journal without recomputation, and every
// freshly finished replica is flushed to it before the run moves on — the
// mechanism behind bitsweep's -resume.
func RunContext(ctx context.Context, t Task, workers int, journal *Journal) (Outcome, error) {
	if t.Replicas < 1 {
		return Outcome{}, fmt.Errorf("sim: task %q has %d replicas", t.Name, t.Replicas)
	}
	run, err := runner(t.Mode)
	if err != nil {
		return Outcome{}, fmt.Errorf("sim: task %q: %w", t.Name, err)
	}
	// Fail the whole task on a bad configuration before spawning anything,
	// rather than once per replica inside the pool.
	if err := t.Config.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("sim: task %q: %w", t.Name, err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > t.Replicas {
		workers = t.Replicas
	}

	// Derive per-replica seeds up front for scheduling-independent
	// determinism.
	master := rng.New(t.Seed)
	seeds := make([]uint64, t.Replicas)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	st := &taskState{
		name:    t.Name,
		results: make([]engine.Result, t.Replicas),
		states:  make([]ReplicaState, t.Replicas),
		errs:    make([]error, t.Replicas),
		ctx:     ctx,
		journal: journal,
		obsv:    t.Observer,
	}
	if f := t.Config.Faults; f != nil && !f.Empty() {
		st.faultHorizon = f.Horizon()
	}
	if journal != nil {
		st.key = TaskKey(t)
	}

	// Lease-aware iteration: register the task's global ordinal (every
	// shard of a partitioned sweep sees every task, so ordinals agree
	// across shards), serve checkpointed replicas from the journal, skip
	// replicas owned by other partitions, and run only the rest.
	journal.BeginTask(st.key)
	var pending []int
	for i := 0; i < t.Replicas; i++ {
		if r, ok := journal.Lookup(st.key, i); ok {
			st.results[i] = r
			continue
		}
		if !journal.Owns(st.key, i) {
			st.states[i] = Skipped
			continue
		}
		pending = append(pending, i)
	}

	cfg := t.Config
	if done := ctx.Done(); done != nil {
		// A non-blocking receive on Done reads the channel's state
		// without a lock; ctx.Err() takes the context's mutex, which
		// every sim worker sharing ctx would contend on every round.
		caller := cfg.Halt
		cfg.Halt = func() bool {
			select {
			case <-done:
				return true
			default:
				return caller != nil && caller()
			}
		}
	}

	if len(pending) > 0 {
		switch t.Mode {
		case Parallel:
			runBatched(cfg, st, pending, seeds, workers, len(pending), engine.RunParallelReplicas, run)
		case AgentLevel:
			runBatched(cfg, st, pending, seeds, workers, agentBatchWidth(cfg), func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
				return engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, seeds)
			}, run)
		default:
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						if st.obsv != nil {
							st.obsv.ReplicaStart(st.name, i)
						}
						res, err := runRecovered(run, cfg, rng.New(seeds[i]))
						st.classify(i, res, err)
					}
				}()
			}
			for _, i := range pending {
				next <- i
			}
			close(next)
			wg.Wait()
		}
	}

	return st.outcome(t)
}

// taskState is the shared mutable state of one RunContext call. Workers
// write disjoint replica slots, so only the journal needs locking (it has
// its own mutex).
type taskState struct {
	name    string
	results []engine.Result
	states  []ReplicaState
	errs    []error
	ctx     context.Context
	journal *Journal
	key     string
	obsv    Observer
	// faultHorizon is the task's fault-schedule horizon (0 without
	// faults); classify uses it to report self-stabilization delays.
	faultHorizon int64

	mu         sync.Mutex
	journalErr error
}

// classify files one finished replica: state, failure cause, checkpoint,
// observer events.
func (st *taskState) classify(i int, res engine.Result, err error) {
	switch {
	case err != nil:
		st.states[i] = Failed
		st.errs[i] = err
	case res.Interrupted:
		if st.ctx.Err() == context.DeadlineExceeded {
			st.states[i] = TimedOut
		} else {
			st.states[i] = Cancelled
		}
		st.results[i] = res
	default:
		st.results[i] = res
		if st.journal != nil {
			jerr := st.journal.Record(st.key, i, res)
			if jerr != nil {
				st.mu.Lock()
				if st.journalErr == nil {
					st.journalErr = jerr
				}
				st.mu.Unlock()
			} else if st.obsv != nil {
				st.obsv.Checkpoint(st.name, i)
			}
		}
		if st.obsv != nil && st.faultHorizon > 0 && res.Converged {
			st.obsv.Recovery(st.name, i, res.Rounds-st.faultHorizon)
		}
	}
	if st.obsv != nil {
		st.obsv.ReplicaDone(st.name, i, res.Rounds, res.Converged, st.states[i].String())
	}
}

// outcome assembles the final Outcome and decides the returned error.
func (st *taskState) outcome(t Task) (Outcome, error) {
	out := Outcome{Task: t, Results: st.results}
	clean := true
	for i, s := range st.states {
		if s == Done {
			continue
		}
		clean = false
		if s == Failed {
			out.Failures = append(out.Failures, ReplicaFailure{Replica: i, Err: st.errs[i]})
		}
	}
	if !clean {
		out.States = st.states
	}
	if st.journalErr != nil {
		return out, fmt.Errorf("sim: task %q: %w", t.Name, st.journalErr)
	}
	if err := st.ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// runRecovered invokes one engine run, converting a panic into an error so
// a corrupted replica cannot take down the whole sweep.
func runRecovered(run func(engine.Config, *rng.RNG) (engine.Result, error), cfg engine.Config, g *rng.RNG) (res engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = engine.Result{}
			err = fmt.Errorf("replica panicked: %v", r)
		}
	}()
	return run(cfg, g)
}

// runBatched fans Parallel- and AgentLevel-mode replicas out as contiguous
// chunks of the pending list, one per worker, and runs each chunk as
// lockstep batches of at most width replicas through batch
// (engine.RunParallelReplicas or engine.RunAgentsReplicas), so a batch's
// replicas share one memo of Eq. 4 evaluations. Per-replica seeds are the
// ones the unbatched path would use and batch reproduces solo runs
// exactly, so outcomes are identical to running each replica on its own —
// just cheaper by the memo's hit rate.
//
// A panic inside a batch poisons its shared state, so the batch falls back
// to bit-identical per-replica solo runs, each individually recovered;
// only the replica that actually panics is lost.
func runBatched(cfg engine.Config, st *taskState, pending []int, seeds []uint64, workers, width int,
	batch func(engine.Config, []uint64) ([]engine.Result, error),
	solo func(engine.Config, *rng.RNG) (engine.Result, error)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(pending) / workers
		hi := (w + 1) * len(pending) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			for len(chunk) > 0 {
				sub := chunk[:min(width, len(chunk))]
				chunk = chunk[len(sub):]
				subSeeds := make([]uint64, len(sub))
				for k, i := range sub {
					subSeeds[k] = seeds[i]
					if st.obsv != nil {
						// The batch advances in lockstep, so its replicas
						// all start when it does.
						st.obsv.ReplicaStart(st.name, i)
					}
				}
				rs, err := batchRecovered(batch, cfg, subSeeds)
				if err == nil {
					for k, i := range sub {
						st.classify(i, rs[k], nil)
					}
					continue
				}
				// Batch failed as a unit; isolate the fault per replica.
				for _, i := range sub {
					res, rerr := runRecovered(solo, cfg, rng.New(seeds[i]))
					st.classify(i, res, rerr)
				}
			}
		}(pending[lo:hi])
	}
	wg.Wait()
}

// batchRecovered invokes one batch run, converting a panic into an error.
func batchRecovered(batch func(engine.Config, []uint64) ([]engine.Result, error), cfg engine.Config, seeds []uint64) (rs []engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			rs = nil
			err = fmt.Errorf("batch panicked: %v", r)
		}
	}()
	return batch(cfg, seeds)
}

// agentBatchBudget caps the opinion-bitset memory one worker's lockstep
// agent-level batch keeps live at once (every replica of a batch holds two
// bitsets until it retires). 256 MiB bounds a thousand-replica sweep at
// n = 10⁶ comfortably while keeping huge-n batches narrow enough to fit.
const agentBatchBudget = 256 << 20

// agentBatchWork caps a lockstep agent-level batch at n × round cap ×
// width agent-rounds: a batch checkpoints only when its last replica
// retires. 2²⁸ is about a quarter second of one core at the bitset
// kernel's ~1 ns per agent-round.
const agentBatchWork = 1 << 28

// agentBatchWidth is the widest agent-level batch whose live bitsets — two
// per replica, n/8 bytes each — fit agentBatchBudget and whose work at the
// round cap fits agentBatchWork.
func agentBatchWidth(cfg engine.Config) int {
	n := max(cfg.N, 1)
	return int(max(min(agentBatchBudget/max(n/4, 1), agentBatchWork/n/cfg.RoundCap()), 1))
}

// runner maps a mode to its engine entry point.
func runner(m Mode) (func(engine.Config, *rng.RNG) (engine.Result, error), error) {
	switch m {
	case Parallel:
		return engine.RunParallel, nil
	case Sequential:
		return engine.RunSequential, nil
	case AgentLevel:
		return func(cfg engine.Config, g *rng.RNG) (engine.Result, error) {
			return engine.RunAgents(cfg, engine.AgentOptions{}, g)
		}, nil
	default:
		return nil, fmt.Errorf("unknown mode %d", int(m))
	}
}

// ConvergedCount returns how many replicas converged.
func (o *Outcome) ConvergedCount() int {
	c := 0
	for _, r := range o.Results {
		if r.Converged {
			c++
		}
	}
	return c
}

// SuccessRate returns the convergence fraction with its Wilson 95%
// confidence interval.
func (o *Outcome) SuccessRate() (rate, lo, hi float64) {
	n := int64(len(o.Results))
	k := int64(o.ConvergedCount())
	if n == 0 {
		return 0, 0, 1
	}
	lo, hi = dist.WilsonInterval(k, n, 0.05)
	return float64(k) / float64(n), lo, hi
}

// ConvergenceRounds returns the rounds-to-consensus of the converged
// replicas.
func (o *Outcome) ConvergenceRounds() []int64 {
	out := make([]int64, 0, len(o.Results))
	for _, r := range o.Results {
		if r.Converged {
			out = append(out, r.Rounds)
		}
	}
	return out
}

// RoundsSummary summarizes the convergence rounds of converged replicas.
func (o *Outcome) RoundsSummary() stats.Summary {
	return stats.Summarize(stats.Float64s(o.ConvergenceRounds()))
}
