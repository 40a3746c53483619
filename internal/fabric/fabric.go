// Package fabric is the distributed sweep layer: it partitions the
// (experiment task, replica) space of a sweep deterministically across N
// worker processes, runs each partition as an independent shard writing
// its own resumable sim.Journal, and (through sim.MergeJournals) folds the
// shards back into one checkpoint stream byte-identical to a
// single-process run.
//
// The design leans entirely on the repo's determinism contract. A shard is
// a pure function of (sweep spec, shard index, shard count): every worker
// runs the identical experiment sequence, the partition function selects
// the replicas it computes, and the journal records them under content
// keys (sim.TaskKey). That makes coordination trivial — workers never
// exchange state, a dead worker's partition can be re-issued to any
// survivor, and a re-issued partition that its old holder also finishes
// just produces duplicate lines the merge deduplicates, because
// duplicates are guaranteed identical.
//
// Two transports ship on top:
//
//   - file-based (zero coordination): `bitsweep -partition i/N -journal
//     shard-i.jsonl` per worker, then `bitsweep -join 'shard-*.jsonl'
//     -journal merged.jsonl` to merge and render;
//   - an HTTP coordinator: internal/serve exposes /v1/lease backed by
//     fabric.Board, and `bitspreadd -pull` workers lease partitions,
//     run RunShard, and upload the shard bytes; a worker that finds every
//     partition leased is held until one completes or its lease expires.
package fabric

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"bitspread/internal/experiments"
	"bitspread/internal/sim"
)

// Shard identifies one partition of the task space: index i of count N.
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the CLI form "i/N".
func ParseShard(s string) (Shard, error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("fabric: bad partition %q (want i/N, e.g. 0/4)", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(i))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(n))
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("fabric: bad partition %q (want i/N, e.g. 0/4)", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	return sh, sh.Validate()
}

// Validate checks 0 <= Index < Count.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("fabric: partition count %d < 1", s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("fabric: partition index %d outside [0,%d)", s.Index, s.Count)
	}
	return nil
}

// String renders the CLI form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Assign hashes a (task key, replica) pair to its owner-selection value.
// FNV-1a over the canonical "key:replica" string: cheap, stable across
// processes and architectures, and independent of replica count — adding
// replicas to a task never reshuffles the existing ones between workers,
// mirroring the journal's prefix-reuse property.
func Assign(key string, replica int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s:%d", key, replica)
	return h.Sum64()
}

// Owns reports whether the shard owns the pair.
func (s Shard) Owns(key string, replica int) bool {
	return Assign(key, replica)%uint64(s.Count) == uint64(s.Index)
}

// Partition returns the sim.PartitionFunc for this shard.
func (s Shard) Partition() sim.PartitionFunc {
	return func(key string, replica int) bool { return s.Owns(key, replica) }
}

// SweepSpec identifies a sweep's full task space — everything a worker
// needs to reproduce the exact experiment sequence of the render step.
// Two processes with equal specs enumerate identical tasks in identical
// order with identical seeds; that equality is what the merge proof
// stands on.
type SweepSpec struct {
	// Exps are the experiment IDs to run (nil/empty: all).
	Exps []string `json:"exps,omitempty"`
	// Seed drives all randomness, exactly bitsweep -seed.
	Seed uint64 `json:"seed"`
	// Quick selects the reduced experiment sizes, exactly bitsweep -quick.
	Quick bool `json:"quick,omitempty"`
	// SimWorkers bounds replica parallelism inside the shard process
	// (<= 0: GOMAXPROCS). Shard-internal scheduling never affects the
	// merged bytes: merge orders lines canonically.
	SimWorkers int `json:"sim_workers,omitempty"`
}

// Experiments resolves the spec's experiment selection.
func (s SweepSpec) Experiments() ([]experiments.Experiment, error) {
	if len(s.Exps) == 0 {
		return experiments.All(), nil
	}
	var out []experiments.Experiment
	for _, id := range s.Exps {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			return nil, fmt.Errorf("fabric: unknown experiment %q (known: %s)",
				id, strings.Join(experiments.IDs(), ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// ShardStats summarizes one RunShard call.
type ShardStats struct {
	// Checkpointed is the number of replicas in the shard journal at exit
	// (resumed entries included).
	Checkpointed int
	// Experiments is how many experiments the shard iterated.
	Experiments int
	// TolerableErrors counts experiment errors ignored because they are
	// expected on partial data (a fit or verdict computed over one shard's
	// replicas routinely fails); the shard's journal entries, the only
	// output that matters, are complete for every such experiment because
	// table-stage failures happen after the cells' simulations ran.
	TolerableErrors int
}

// RunShard executes one partition of the sweep: every selected experiment
// runs in order, but only the (task, replica) pairs the shard owns are
// computed and checkpointed into the journal at journalPath. With resume
// set, a partial shard journal from a killed worker is reused instead of
// recomputed — re-leasing a partition is cheap and, by determinism,
// byte-safe.
//
// Experiment-level errors are tolerated (logged, counted): a shard holds
// only a slice of each cell's replicas, so statistics stages can
// legitimately fail. Context cancellation and journal write failures are
// real errors and abort the shard.
func RunShard(ctx context.Context, spec SweepSpec, shard Shard, journalPath string, resume bool, logf func(string, ...any)) (ShardStats, error) {
	if err := shard.Validate(); err != nil {
		return ShardStats{}, err
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	exps, err := spec.Experiments()
	if err != nil {
		return ShardStats{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	journal, err := sim.OpenJournalOpts(journalPath, sim.JournalOptions{
		Resume:    resume,
		Logf:      logf,
		Partition: shard.Partition(),
	})
	if err != nil {
		return ShardStats{}, err
	}
	defer journal.Close()

	opts := experiments.Options{
		Seed:    spec.Seed,
		Workers: spec.SimWorkers,
		Quick:   spec.Quick,
		Ctx:     ctx,
		Journal: journal,
	}
	stats := ShardStats{}
	for _, e := range exps {
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		stats.Experiments++
		if _, err := e.Run(opts); err != nil {
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			if jerr := journal.Err(); jerr != nil {
				return stats, fmt.Errorf("fabric: shard %s: %w", shard, jerr)
			}
			stats.TolerableErrors++
			logf("fabric: shard %s: experiment %s failed on partial data (tolerated): %v", shard, e.ID, err)
		}
	}
	if jerr := journal.Err(); jerr != nil {
		return stats, fmt.Errorf("fabric: shard %s: %w", shard, jerr)
	}
	if err := journal.Close(); err != nil {
		return stats, fmt.Errorf("fabric: shard %s: closing journal: %w", shard, err)
	}
	stats.Checkpointed = journal.Len()
	return stats, nil
}
