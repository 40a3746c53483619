// Package sim is the Monte-Carlo experiment runner: it fans a configured
// bit-dissemination instance (a Task) or any keyed replica function (a
// Unit) out over replicas, runs them as batches that a bounded worker pool
// pulls from one queue, and aggregates convergence statistics. Replica
// seeds are fixed before any goroutine starts, and a batch reproduces each
// of its replicas' solo runs exactly, so results do not depend on
// scheduling.
//
// The runner is hardened for long unattended sweeps: a context.Context
// cancels it (a Task's engines poll it every round), a replica that
// panics is recorded as Failed instead of killing the process, and an
// optional Journal checkpoints every finished replica so an interrupted
// sweep resumes where it stopped.
package sim

import (
	"context"
	"fmt"

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

// Observer receives run-level lifecycle events from the scheduler. The
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
// honouring ctx and checkpointing into journal (both optional), as
// in-order lockstep batches of the mode's engine batch call:
// RunParallelReplicas, RunAgentsReplicas, or RunSequential one seed at a
// time. Every engine polls ctx at round boundaries; the partial Outcome
// classifies unfinished replicas as Cancelled (TimedOut on a deadline)
// and comes with ctx.Err(). A replica that panics is marked Failed, its
// cause in Outcome.Failures, while the rest keep running. Replicas
// checkpointed under the task's TaskKey are served from the journal, and
// every finished one is flushed to it before its worker moves on — the
// mechanism behind bitsweep's -resume.
func RunContext(ctx context.Context, t Task, workers int, journal *Journal) (Outcome, error) {
	if t.Replicas < 1 {
		return Outcome{}, fmt.Errorf("sim: task %q has %d replicas", t.Name, t.Replicas)
	}
	if t.Mode < Parallel || t.Mode > AgentLevel {
		return Outcome{}, fmt.Errorf("sim: task %q: unknown mode %d", t.Name, int(t.Mode))
	}
	// Fail the whole task on a bad configuration before spawning anything,
	// rather than once per replica inside the pool.
	if err := t.Config.Validate(); err != nil {
		return Outcome{}, fmt.Errorf("sim: task %q: %w", t.Name, err)
	}
	if ctx == nil {
		ctx = context.Background()
	}

	// Derive per-replica seeds up front for scheduling-independent
	// determinism.
	master := rng.New(t.Seed)
	seeds := make([]uint64, t.Replicas)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	s := &replicaSet[engine.Result]{name: t.Name, ctx: ctx, journal: journal, obsv: t.Observer,
		stopped: func(r engine.Result) bool { return r.Interrupted }}
	if journal != nil {
		s.key = TaskKey(t)
	}
	var horizon int64 // reports self-stabilization delays past a fault schedule
	if f := t.Config.Faults; f != nil && !f.Empty() {
		horizon = f.Horizon()
	}
	s.report = func(i int, r engine.Result, st ReplicaState) {
		if st == Done && horizon > 0 && r.Converged {
			s.obsv.Recovery(t.Name, i, r.Rounds-horizon)
		}
		s.obsv.ReplicaDone(t.Name, i, r.Rounds, r.Converged, st.String())
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
	// agentBatchWidth, and a Sequential one holds one replica: that engine
	// has no lockstep batch. Replica k of a batch is bit-identical to a
	// solo run seeded with its seed.
	width := 0
	switch t.Mode {
	case AgentLevel:
		width = agentBatchWidth(cfg)
	case Sequential:
		width = 1
	}
	s.run(t.Replicas, workers, width, func(sub []int) ([]engine.Result, error) {
		subSeeds := make([]uint64, len(sub))
		for k, i := range sub {
			subSeeds[k] = seeds[i]
		}
		switch t.Mode {
		case Parallel:
			return engine.RunParallelReplicas(cfg, subSeeds)
		case AgentLevel:
			return engine.RunAgentsReplicas(cfg, engine.AgentOptions{}, subSeeds)
		}
		res, err := engine.RunSequential(cfg, rng.New(subSeeds[0]))
		return []engine.Result{res}, err
	})

	out := Outcome{Task: t, Results: s.recs}
	for i, st := range s.states {
		if st != Done {
			out.States = s.states
		}
		if st == Failed {
			out.Failures = append(out.Failures, ReplicaFailure{Replica: i, Err: s.errs[i]})
		}
	}
	if s.journalErr != nil {
		return out, fmt.Errorf("sim: task %q: %w", t.Name, s.journalErr)
	}
	return out, ctx.Err()
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
