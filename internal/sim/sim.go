// Package sim is the Monte-Carlo experiment runner: it fans a configured
// bit-dissemination instance out over seeded replicas, runs them as
// lockstep batches that a bounded worker pool pulls from one queue, and
// aggregates convergence statistics. Replica seeds are derived
// deterministically from the task seed before any goroutine starts, and a
// batch reproduces each of its replicas' solo runs exactly, so results are
// reproducible regardless of scheduling.
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
// honouring ctx and checkpointing into journal (both optional). The
// workers pull in-order lockstep batches of replicas from one channel and
// run each through the mode's engine batch call: RunParallelReplicas,
// RunAgentsReplicas, or RunSequential one seed at a time.
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
	batch, err := batchRunner(t.Mode)
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

	// A Parallel batch has no size limit (it shares one AdoptCache and
	// costs a few words per replica), an AgentLevel one is capped by
	// agentBatchWidth, and a Sequential one holds one replica. The queue
	// is filled before any worker starts, so no batch waits on a handoff
	// from this goroutine, and a worker that finishes early takes the
	// next batch.
	width := max(len(pending), 1)
	switch t.Mode {
	case AgentLevel:
		width = agentBatchWidth(cfg)
	case Sequential:
		width = 1
	}
	subs := batches(pending, workers, width)
	next := make(chan []int, len(subs))
	for _, sub := range subs {
		next <- sub
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(subs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sub := range next {
				//bitlint:taintdet the worker count only sizes the lockstep batches; a batch reproduces each replica's solo run, so no recorded Result depends on it (TestRunDeterministicAcrossWorkerCounts)
				st.runBatch(batch, cfg, sub, seeds)
			}
		}()
	}
	wg.Wait()

	return st.outcome(t)
}

// batches cuts pending into in-order lockstep batches of even size, at
// least one per worker, so every worker has work, and each at most width
// replicas.
func batches(pending []int, workers, width int) [][]int {
	nb := max(min(workers, len(pending)), (len(pending)+width-1)/width)
	subs := make([][]int, nb)
	for k := range subs {
		subs[k] = pending[k*len(pending)/nb : (k+1)*len(pending)/nb]
	}
	return subs
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

// runBatch runs the replicas sub as one lockstep batch and files each
// result. A panic poisons a batch's shared state, so a batch that fails
// reruns each replica as a one-seed batch — bit-identical to its solo
// run by the engines' batch contracts — and only a replica that fails
// on its own is lost.
func (st *taskState) runBatch(batch batchFunc, cfg engine.Config, sub []int, seeds []uint64) {
	subSeeds := make([]uint64, len(sub))
	for k, i := range sub {
		subSeeds[k] = seeds[i]
		if st.obsv != nil {
			// The batch advances in lockstep, so its replicas all start
			// when it does.
			st.obsv.ReplicaStart(st.name, i)
		}
	}
	rs, err := batchRecovered(batch, cfg, subSeeds)
	for k, i := range sub {
		res, rerr := rs[k], err
		if err != nil && len(sub) > 1 {
			one, oerr := batchRecovered(batch, cfg, seeds[i:i+1])
			res, rerr = one[0], oerr
		}
		st.classify(i, res, rerr)
	}
}

// batchRecovered invokes one batch run, converting a panic into an error
// so a corrupted replica cannot take down the whole sweep. A failed batch
// reports zero Results, one per seed.
func batchRecovered(batch batchFunc, cfg engine.Config, seeds []uint64) (rs []engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replica panicked: %v", r)
		}
		if err != nil {
			rs = make([]engine.Result, len(seeds))
		}
	}()
	return batch(cfg, seeds)
}

// agentBatchBudget caps the opinion-bitset memory one worker's lockstep
// agent-level batch keeps live at once (every replica of a batch holds two
// bitsets until it retires). 256 MiB bounds a thousand-replica sweep at
// n = 10⁶ comfortably while keeping huge-n batches narrow enough to fit.
const agentBatchBudget = 256 << 20

// MaxAgentN is the largest population whose AgentLevel replica fits
// agentBatchBudget alone: its two opinion bitsets take n/8 bytes each.
const MaxAgentN = 4 * agentBatchBudget

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

// batchFunc runs one lockstep replica per seed; replica k's Result is
// bit-identical to a solo run seeded with seeds[k].
type batchFunc func(engine.Config, []uint64) ([]engine.Result, error)

// batchRunner maps a mode to its engine's batch entry point. The
// sequential engine has no lockstep batch, so RunContext hands it one
// seed at a time.
func batchRunner(m Mode) (batchFunc, error) {
	switch m {
	case Parallel:
		return engine.RunParallelReplicas, nil
	case Sequential:
		return func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			res, err := engine.RunSequential(cfg, rng.New(seeds[0]))
			return []engine.Result{res}, err
		}, nil
	case AgentLevel:
		return func(cfg engine.Config, seeds []uint64) ([]engine.Result, error) {
			return engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, seeds)
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
