package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bitspread/internal/rng"
)

// walk is a test record: a replica's own draws.
type walk struct {
	Sum  float64
	Max  uint64
	Tags []string
}

// walkUnit returns a unit of replicas whose record is a pure function of
// (seed, replica), plus a count of the replicas it computed.
func walkUnit(seed uint64, replicas int, obsv Observer) (Unit[walk], *atomic.Int64) {
	var calls atomic.Int64
	gens := rng.New(seed).SplitN(replicas)
	return Unit[walk]{
		Name:     "walk",
		Key:      fmt.Sprintf("seed=%d", seed),
		Replicas: replicas,
		Observer: obsv,
		Run: func(i int) (walk, error) {
			calls.Add(1)
			var w walk
			for k := 0; k < 1000*(1+i%3); k++ {
				u := gens[i].Uint64()
				w.Sum += float64(u>>11) / (1 << 53)
				w.Max = max(w.Max, u)
			}
			if i%2 == 0 {
				w.Tags = []string{"even"}
			}
			return w, nil
		},
	}, &calls
}

// canonical merges one journal file into the canonical line order.
func canonical(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mergedString(t, MergeSource{Name: path, Data: data})
	return s
}

// A unit's records and journal lines do not depend on the worker count:
// at 1, 2 and 7 workers the records are equal and the journals hold the
// same lines (in canonical order; a one-worker journal is already in it).
func TestUnitWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	var want []walk
	var wantJournal string
	for _, workers := range []int{1, 2, 7} {
		u, _ := walkUnit(3, 23, nil)
		path := filepath.Join(dir, "w"+string(rune('0'+workers))+".jsonl")
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := RunUnit(context.Background(), u, workers, j)
		if err := errors.Join(err, j.Close()); err != nil {
			t.Fatal(err)
		}
		got := canonical(t, path)
		if workers == 1 {
			raw, _ := os.ReadFile(path)
			if string(raw) != got {
				t.Error("one-worker journal is not in canonical order")
			}
			want, wantJournal = recs, got
			continue
		}
		for i := range recs {
			if recs[i].Sum != want[i].Sum || recs[i].Max != want[i].Max || len(recs[i].Tags) != len(want[i].Tags) {
				t.Fatalf("%d workers: replica %d record %+v, want %+v", workers, i, recs[i], want[i])
			}
		}
		if got != wantJournal {
			t.Errorf("%d workers: journal lines differ from the one-worker journal", workers)
		}
	}
}

// A resumed unit decodes its checkpointed replicas, computes only the
// rest, and returns the records of an uninterrupted run.
func TestUnitResumeComputesOnlyTheRest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.jsonl")
	u, _ := walkUnit(5, 12, nil)
	want, err := RunUnit(context.Background(), u, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint replicas 0–4 only, as a run killed after them would.
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := walkUnit(5, 5, nil)
	if _, err := RunUnit(context.Background(), first, 2, j); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	u, calls := walkUnit(5, 12, nil)
	got, err := RunUnit(context.Background(), u, 2, j)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 7 {
		t.Errorf("resume computed %d replicas, want the 7 unjournaled ones", calls.Load())
	}
	for i := range want {
		if got[i].Sum != want[i].Sum || got[i].Max != want[i].Max {
			t.Errorf("replica %d: resumed %+v, uninterrupted %+v", i, got[i], want[i])
		}
	}
}

// eventLog is an Observer that records every event.
type eventLog struct {
	mu                        sync.Mutex
	starts, dones, checkpoint map[int]int
	states                    []string
}

func newEventLog() *eventLog {
	return &eventLog{starts: map[int]int{}, dones: map[int]int{}, checkpoint: map[int]int{}}
}

func (e *eventLog) ReplicaStart(_ string, i int) { e.mu.Lock(); e.starts[i]++; e.mu.Unlock() }
func (e *eventLog) ReplicaDone(_ string, i int, _ int64, _ bool, st string) {
	e.mu.Lock()
	e.dones[i]++
	e.states = append(e.states, st)
	e.mu.Unlock()
}
func (e *eventLog) Checkpoint(_ string, i int)        { e.mu.Lock(); e.checkpoint[i]++; e.mu.Unlock() }
func (e *eventLog) Recovery(_ string, _ int, _ int64) {}

// matched reports whether every ReplicaStart has exactly one ReplicaDone.
func (e *eventLog) matched(t *testing.T) {
	t.Helper()
	for i, n := range e.starts {
		if n != 1 || e.dones[i] != 1 {
			t.Errorf("replica %d: %d starts, %d dones", i, n, e.dones[i])
		}
	}
	if len(e.dones) != len(e.starts) {
		t.Errorf("%d replicas done, %d started", len(e.dones), len(e.starts))
	}
}

// Cancelling a unit mid-run: replicas after the cancel never run, a
// record finished after it is not journaled, every ReplicaStart has its
// ReplicaDone, and RunUnit returns the context's error.
func TestUnitCancelJournalsOnlyFinishedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "u.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := newEventLog()
	var ran atomic.Int64
	u := Unit[int]{Name: "c", Key: "k", Replicas: 40, Observer: events, Run: func(i int) (int, error) {
		if ran.Add(1) == 6 {
			cancel() // this replica's record is produced after ctx ended
		}
		return i, nil
	}}
	_, err = RunUnit(ctx, u, 3, j)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	j.Close()
	if n := ran.Load(); n < 6 || n > 8 {
		t.Errorf("%d replicas ran; the cancel leaves at most the 2 other workers' in flight", n)
	}
	lines := strings.Count(canonical(t, path), "\n")
	if lines >= int(ran.Load()) || lines != len(events.checkpoint) {
		t.Errorf("%d lines journaled, %d checkpoint events, %d replicas ran: a post-cancel record was journaled", lines, len(events.checkpoint), ran.Load())
	}
	events.matched(t)
}

// A failing or panicking replica fails the unit with its cause while the
// other replicas still run and report.
func TestUnitFailureAndPanic(t *testing.T) {
	events := newEventLog()
	u := Unit[int]{Name: "f", Key: "k", Replicas: 8, Observer: events, Run: func(i int) (int, error) {
		switch i {
		case 3:
			return 0, errors.New("boom")
		case 5:
			panic("bad replica")
		}
		return i * i, nil
	}}
	recs, err := RunUnit(context.Background(), u, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "replica 3: boom") {
		t.Fatalf("err = %v, want replica 3's failure", err)
	}
	if recs[7] != 49 || recs[5] != 0 {
		t.Errorf("records %v: the healthy replicas must still run", recs)
	}
	events.matched(t)
	if len(events.starts) != 8 {
		t.Errorf("%d replicas started, want 8", len(events.starts))
	}
}

// JSON cannot encode NaN or Inf, so a journaled non-finite record fails
// the unit instead of writing a line no resume could read.
func TestUnitNonFiniteRecordFails(t *testing.T) {
	j, err := OpenJournal(filepath.Join(t.TempDir(), "u.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	u := Unit[float64]{Name: "nan", Key: "k", Replicas: 2, Run: func(i int) (float64, error) {
		return math.Log(float64(i)), nil // -Inf at i = 0
	}}
	if _, err := RunUnit(context.Background(), u, 1, j); err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("err = %v, want a JSON encoding failure", err)
	}
}

// Two shards of a unit compute disjoint replicas, and their merge equals
// the single-process journal. The journal key covers Name and Key.
func TestUnitPartitionMergesToSingleProcess(t *testing.T) {
	dir := t.TempDir()
	run := func(path string, own PartitionFunc) []walk {
		j, err := OpenJournalOpts(path, JournalOptions{Partition: own})
		if err != nil {
			t.Fatal(err)
		}
		u, _ := walkUnit(9, 17, nil)
		recs, err := RunUnit(context.Background(), u, 2, j)
		if err := errors.Join(err, j.Close()); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	ref := filepath.Join(dir, "ref.jsonl")
	want := run(ref, nil)
	var srcs []MergeSource
	for k := 0; k < 2; k++ {
		path := filepath.Join(dir, "s"+string(rune('0'+k))+".jsonl")
		recs := run(path, func(_ string, i int) bool { return i%2 == k })
		for i, r := range recs {
			if computed := r.Max != 0; computed != (i%2 == k) {
				t.Errorf("shard %d: replica %d computed = %v", k, i, computed)
			}
		}
		data, _ := os.ReadFile(path)
		srcs = append(srcs, MergeSource{Name: path, Data: data})
	}
	var merged bytes.Buffer
	if _, err := MergeJournals(&merged, srcs); err != nil {
		t.Fatal(err)
	}
	if merged.String() != canonical(t, ref) {
		t.Error("merged shards differ from the single-process journal")
	}
	if len(want) != 17 {
		t.Fatalf("%d records", len(want))
	}

	u, _ := walkUnit(9, 17, nil)
	v := u
	v.Key += " n=2"
	j, err := OpenJournal(ref, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, c := range []struct {
		u    Unit[walk]
		hits bool
	}{{u, true}, {v, false}} {
		var hit walk
		if got := j.lookup(unitKey(c.u), 0, &hit); got != c.hits {
			t.Errorf("key %q: checkpoint found = %v, want %v", c.u.Key, got, c.hits)
		}
	}
}
