package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bitspread/internal/sim"
)

// startCounter is an Observer that counts ReplicaStart events, the
// replicas a run computes rather than serves from its journal.
type startCounter struct {
	n atomic.Int64
}

func (c *startCounter) ReplicaStart(string, int)                     { c.n.Add(1) }
func (c *startCounter) ReplicaDone(string, int, int64, bool, string) {}
func (c *startCounter) Checkpoint(string, int)                       {}
func (c *startCounter) Recovery(string, int, int64)                  {}

// cancelAfter is an Observer that cancels the sweep once k replicas of the
// units whose names start with prefix are checkpointed.
type cancelAfter struct {
	startCounter
	prefix string
	k      int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Checkpoint(task string, _ int) {
	if strings.HasPrefix(task, c.prefix) && c.seen.Add(1) == c.k {
		c.cancel()
	}
}

// A sweep cancelled after k of X4's unit replicas are checkpointed
// resumes by computing only the replicas its journal lacks, and prints
// the uninterrupted tables (runJournaled checks the pinned digest).
func TestX4ResumeComputesOnlyTheRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x4.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := sim.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts
	opts.Ctx, opts.Journal = ctx, j
	opts.Observer = &cancelAfter{prefix: "X4/", k: 5, cancel: cancel}
	e, _ := ByID("X4")
	if _, err := e.Run(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled X4 returned %v, want context.Canceled", err)
	}
	j.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := int64(strings.Count(string(data), "\n"))

	starts := &startCounter{}
	opts = quickOpts
	opts.Observer = starts
	runJournaled(t, "X4", opts, path, true)
	// Quick X4: two sizes, each a 6-replica control task and two
	// 6-replica accumulator units.
	if got, want := starts.n.Load(), 36-checkpointed; got != want {
		t.Errorf("resume computed %d replicas, want the %d its journal lacks", got, want)
	}
}

// unitName matches the journal keys of units: they are named after their
// experiment's ID, tasks never are.
var unitName = regexp.MustCompile(`^[TFX][0-9]+(/[^#]*)?#`)

// Unit keys cover every input of a replica but its index, so a quick and a
// full-size sweep never share one and neither's journal can serve the
// other. A partition that owns nothing lists every key without computing
// a replica; F1 runs unjournaled and has none.
func TestUnitKeysSeparateQuickAndFull(t *testing.T) {
	keys := func(quick bool) map[string]bool {
		var mu sync.Mutex
		seen := map[string]bool{}
		j, err := sim.OpenJournalOpts(filepath.Join(t.TempDir(), "keys.jsonl"), sim.JournalOptions{
			Partition: func(key string, _ int) bool {
				mu.Lock()
				defer mu.Unlock()
				if unitName.MatchString(key) {
					seen[key] = true
				}
				return false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for _, e := range All() {
			// Tables over skipped replicas may fail; only the keys matter.
			e.Run(Options{Seed: 2024, Quick: quick, Journal: j})
		}
		return seen
	}
	quick, full := keys(true), keys(false)
	if len(quick) < 30 || len(full) < 30 {
		t.Fatalf("%d quick and %d full unit keys; the enumeration missed the units", len(quick), len(full))
	}
	for k := range quick {
		if full[k] {
			t.Errorf("unit key %s is shared by the quick and the full sweep", k)
		}
	}
}

// A partition starts none of F1's replicas, which it could not journal,
// and reports no error; without a journal F1 starts all 75 quick ones.
func TestPartitionSkipsF1(t *testing.T) {
	shard, err := sim.OpenJournalOpts(filepath.Join(t.TempDir(), "shard.jsonl"), sim.JournalOptions{
		Partition: func(string, int) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shard.Close()
	e, _ := ByID("F1")
	for _, c := range []struct {
		journal *sim.Journal
		want    int64
	}{{shard, 0}, {nil, 75}} {
		starts := &startCounter{}
		opts := quickOpts
		opts.Journal, opts.Observer = c.journal, starts
		if _, err := e.Run(opts); err != nil {
			t.Fatalf("F1 (partitioned %v): %v", c.journal.Partitioned(), err)
		}
		if got := starts.n.Load(); got != c.want {
			t.Errorf("F1 (partitioned %v) started %d replicas, want %d", c.journal.Partitioned(), got, c.want)
		}
	}
}
