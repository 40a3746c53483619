package sim

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"bitspread/internal/durable"
	"bitspread/internal/engine"
)

// TaskKey fingerprints everything that determines a replica's trajectory:
// the task name, the full engine configuration (rule identity included),
// the mode and the seed. Replicas is deliberately excluded so a journal
// written for a shorter run remains a valid prefix when the same task is
// re-run with more replicas. The key is an FNV-1a hash of a canonical
// description, prefixed with the task name for human-readable journals.
func TaskKey(t Task) string {
	h := fnv.New64a()
	c := &t.Config
	fmt.Fprintf(h, "n=%d z=%d x0=%d max=%d mode=%d seed=%d", c.N, c.Z, c.X0, c.MaxRounds, t.Mode, t.Seed)
	if c.Rule != nil {
		g0, g1 := c.Rule.Tables()
		fmt.Fprintf(h, " rule=%s ell=%d g0=%v g1=%v", c.Rule.Name(), c.Rule.SampleSize(), g0, g1)
	}
	if c.Faults != nil && !c.Faults.Empty() {
		// fault.Schedule stringifies to its full event list, so two tasks
		// share a key only when they inject the same perturbations.
		fmt.Fprintf(h, " faults=%v", c.Faults)
	}
	return fmt.Sprintf("%s#%016x", t.Name, h.Sum64())
}

// journalEntry is one line of the JSONL checkpoint file: a finished replica
// of a keyed task or unit, whose record (a task's engine.Result, a unit's
// JSON record) is kept as raw bytes. Shard journals also carry Seq, the
// global task ordinal, so MergeJournals can restore the canonical
// single-process line order without seeing every shard's task sequence;
// the resume loader ignores it, so a shard journal is itself a valid
// resumable journal. MergeJournals re-emits Result verbatim, so a merge
// never perturbs a checkpoint through a decode/encode round trip.
type journalEntry struct {
	Task    string          `json:"task"`
	Replica int             `json:"replica"`
	Seq     *int            `json:"seq,omitempty"`
	Result  json.RawMessage `json:"result"`
}

// PartitionFunc decides which replicas of a keyed task this process owns.
// Every process of a partitioned sweep sees the identical task space (the
// experiments run everywhere, deterministically); the partition function
// selects the subset of (task key, replica) pairs this process computes
// and checkpoints. internal/fabric provides the standard hash partition.
type PartitionFunc func(key string, replica int) bool

// Journal is an append-only JSONL checkpoint of completed replicas, kept
// in a durable.Log. Every Record is written to the file before it
// returns, so a process killed mid-sweep loses at most the replica in
// flight; reopening the same path with resume=true replays the finished
// work instead of recomputing it. A Journal is safe for concurrent use by
// the sim worker pool. The log's lock keeps a second process out: its
// opener fails fast, naming the holder's PID.
type Journal struct {
	mu   sync.Mutex
	log  *durable.Log
	done map[replicaKey]json.RawMessage
	own  PartitionFunc // JournalOptions.Partition
	// ord assigns each task key its global ordinal — the order the
	// scheduler first saw it. All shards of a partitioned sweep run the
	// same task sequence, so ordinals agree across shards.
	ord map[string]int
	// writeErr latches the first Record failure so a driver that discards
	// per-task errors (partition workers tolerate table-stage failures on
	// partial data) can still fail the shard on checkpoint loss.
	writeErr error
}

// JournalOptions configures OpenJournalOpts.
type JournalOptions struct {
	// Resume loads the existing entries at path (see OpenJournal).
	Resume bool
	// Fsync forces an fsync(2) after every Record write, so a checkpoint
	// survives not just a process kill but a machine crash. Long-running
	// daemons (bitspreadd) turn this on; one-shot sweeps usually accept
	// the smaller page-cache window in exchange for cheaper Records.
	Fsync bool
	// Logf, if non-nil, receives recovery diagnostics during load — most
	// importantly the torn-final-line report when a crash cut a Record
	// in half. Replayed state never depends on it.
	Logf func(format string, args ...any)
	// Partition, if non-nil, makes this a shard journal: the scheduler
	// computes only the replicas it owns (the rest are Skipped), and every
	// line carries its task's ordinal so MergeJournals can restore
	// canonical order.
	Partition PartitionFunc
}

// OpenJournal opens (or creates) the checkpoint file at path. With resume
// set, existing entries are loaded and later served by Lookup; a malformed
// final line — the signature of a write cut off by a kill — is dropped,
// while corruption earlier in the file is an error. Without resume the
// file is truncated and the run starts clean.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalOpts(path, JournalOptions{Resume: resume})
}

// OpenJournalOpts is OpenJournal with the knobs of JournalOptions.
func OpenJournalOpts(path string, opts JournalOptions) (*Journal, error) {
	return OpenJournalFS(durable.OS{}, path, opts)
}

// OpenJournalFS is OpenJournalOpts writing through fsys. bitspreadd opens
// its journal through the same FS as the rest of its durable state, which
// lets its crash-point tests stop every write.
func OpenJournalFS(fsys durable.FS, path string, opts JournalOptions) (*Journal, error) {
	j := &Journal{
		done: map[replicaKey]json.RawMessage{},
		own:  opts.Partition,
		ord:  map[string]int{},
	}
	var replay func([]byte) error
	if opts.Resume {
		replay = func(line []byte) error {
			var e journalEntry
			if err := json.Unmarshal(line, &e); err != nil {
				return err
			}
			j.done[replicaKey{e.Task, e.Replica}] = e.Result
			return nil
		}
	}
	log, err := durable.OpenLog(fsys, path, opts.Fsync, replay, opts.Logf)
	if err != nil {
		return nil, fmt.Errorf("sim: open journal: %w", err)
	}
	j.log = log
	return j, nil
}

// replicaKey names one replica of a keyed task or unit.
type replicaKey struct {
	task    string
	replica int
}

// Lookup returns the checkpointed result of the given replica, if one was
// recorded (in this run or a resumed one).
func (j *Journal) Lookup(task string, replica int) (r engine.Result, ok bool) {
	ok = j.lookup(task, replica, &r)
	return r, ok
}

// lookup decodes the checkpointed record of the given replica into v and
// reports whether one was recorded and decoded.
func (j *Journal) lookup(task string, replica int, v any) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	raw, ok := j.done[replicaKey{task, replica}]
	j.mu.Unlock()
	return ok && json.Unmarshal(raw, v) == nil
}

// Len returns the number of checkpointed replicas across all tasks.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Partitioned reports whether j is a shard journal, one opened with a
// JournalOptions.Partition; a nil Journal is not.
func (j *Journal) Partitioned() bool {
	return j != nil && j.own != nil
}

// beginTask registers the task's global ordinal in a shard journal — the
// number of distinct tasks it saw before — and returns which of the
// task's replicas this process owns: all of them without a partition or
// journal. The scheduler calls it once per task or unit, owned replicas or
// not, so every shard of a partitioned sweep, all running the identical
// sequence, numbers a task in the same slot.
func (j *Journal) beginTask(task string) func(replica int) bool {
	if j == nil || j.own == nil {
		return func(int) bool { return true }
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.ord[task]; !ok {
		j.ord[task] = len(j.ord)
	}
	return func(replica int) bool { return j.own(task, replica) }
}

// Err returns the first Record failure, if any. Partition workers discard
// per-experiment errors (tables computed over a partial shard are expected
// to fail) but must still fail the shard when a checkpoint write was lost.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}

// Record checkpoints a finished replica, writing the line to the file
// before returning. Recording on a nil Journal is a no-op, so the sim
// layer can thread an optional journal without branching.
func (j *Journal) Record(task string, replica int, r engine.Result) error {
	if j == nil {
		return nil
	}
	return j.record(task, replica, r)
}

// record checkpoints a replica's record, encoded as JSON, writing the line
// to the file before returning.
func (j *Journal) record(task string, replica int, v any) error {
	raw, err := json.Marshal(v)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		j.done[replicaKey{task, replica}] = raw
		e := journalEntry{Task: task, Replica: replica, Result: raw}
		if j.own != nil {
			seq := j.ord[task]
			e.Seq = &seq
		}
		err = j.log.Append(e)
	}
	if err != nil {
		err = fmt.Errorf("sim: journal: %w", err)
		if j.writeErr == nil {
			j.writeErr = err
		}
	}
	return err
}

// Close closes the underlying file. The in-memory index stays readable,
// so Lookup keeps working after Close.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.log.Close()
	j.log = nil
	return err
}
