package sim

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitspread/internal/engine"
)

// --- journal locking (flock) ---

// A second opener of a live journal must fail fast with an error naming
// the holder's PID; after the holder closes, the path opens again.
func TestJournalExclusiveLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record("k", 0, engine.Result{Rounds: 3}); err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path, true)
	if err == nil {
		t.Fatal("second opener acquired a locked journal")
	}
	want := fmt.Sprintf("locked by pid %d", os.Getpid())
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("lock error %q does not name the holder (%s)", err, want)
	}
	// The failed opener must not have clobbered the holder's bytes.
	if err := j.Record("k", 1, engine.Result{Rounds: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	defer j2.Close()
	if r, ok := j2.Lookup("k", 1); !ok || r.Rounds != 5 {
		t.Fatalf("entry written while lock contended is missing: %+v %v", r, ok)
	}
}

// --- merge edge cases ---

func mergedString(t *testing.T, srcs ...MergeSource) (string, MergeStats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := MergeJournals(&buf, srcs)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), stats
}

func TestMergeOverlapIdenticalDedups(t *testing.T) {
	a := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"t","replica":2,"seq":0,"result":{"rounds":3}}` + "\n")
	b := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"t","replica":1,"seq":0,"result":{"rounds":2}}` + "\n")
	out, stats := mergedString(t, MergeSource{"a", a}, MergeSource{"b", b})
	want := `{"task":"t","replica":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"t","replica":1,"result":{"rounds":2}}` + "\n" +
		`{"task":"t","replica":2,"result":{"rounds":3}}` + "\n"
	if out != want {
		t.Fatalf("merged:\n%s\nwant:\n%s", out, want)
	}
	if stats.Deduped != 1 || stats.Entries != 3 || stats.Tasks != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestMergeConflictingDuplicateIsHardError(t *testing.T) {
	a := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":1}}` + "\n")
	b := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":9}}` + "\n")
	var buf bytes.Buffer
	_, err := MergeJournals(&buf, []MergeSource{{"a", a}, {"b", b}})
	if err == nil {
		t.Fatal("conflicting duplicate merged silently")
	}
	for _, frag := range []string{"conflicting results", "a", "b", "replica 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("conflict error %q missing %q", err, frag)
		}
	}
}

func TestMergeTornFinalLineDropped(t *testing.T) {
	a := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"t","replica":1,"seq":0,"res`)
	out, stats := mergedString(t, MergeSource{"a", a})
	if stats.Torn != 1 || stats.Entries != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if strings.Contains(out, `"replica":1`) {
		t.Fatalf("torn line leaked into merge:\n%s", out)
	}
}

func TestMergeMidFileCorruptionIsHardError(t *testing.T) {
	a := []byte(`{"task":"t","replica":0,"seq":0,"res` + "\n" +
		`{"task":"t","replica":1,"seq":0,"result":{"rounds":2}}` + "\n")
	var buf bytes.Buffer
	_, err := MergeJournals(&buf, []MergeSource{{"a", a}})
	if err == nil || !strings.Contains(err.Error(), "line 1 corrupt") {
		t.Fatalf("mid-file corruption tolerated: %v", err)
	}
}

func TestMergeEmptyShardsLegal(t *testing.T) {
	a := []byte(`{"task":"t","replica":0,"seq":0,"result":{"rounds":1}}` + "\n")
	out, stats := mergedString(t, MergeSource{"empty1", nil}, MergeSource{"a", a}, MergeSource{"empty2", []byte("\n\n")})
	if stats.Sources != 3 || stats.Entries != 1 {
		t.Fatalf("stats %+v", stats)
	}
	if !strings.Contains(out, `"replica":0`) {
		t.Fatalf("entry lost among empty shards:\n%s", out)
	}
}

// Task order in the merge follows the shard-recorded seq ordinals even
// when a shard only holds replicas of later tasks.
func TestMergeOrdersBySeqAcrossShards(t *testing.T) {
	// Shard a owns replicas of tasks A and C; shard b of B and C. The
	// canonical order A, B, C is recoverable only through seq.
	a := []byte(`{"task":"A","replica":0,"seq":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"C","replica":0,"seq":2,"result":{"rounds":3}}` + "\n")
	b := []byte(`{"task":"B","replica":0,"seq":1,"result":{"rounds":2}}` + "\n" +
		`{"task":"C","replica":1,"seq":2,"result":{"rounds":4}}` + "\n")
	out, _ := mergedString(t, MergeSource{"a", a}, MergeSource{"b", b})
	want := `{"task":"A","replica":0,"result":{"rounds":1}}` + "\n" +
		`{"task":"B","replica":0,"result":{"rounds":2}}` + "\n" +
		`{"task":"C","replica":0,"result":{"rounds":3}}` + "\n" +
		`{"task":"C","replica":1,"result":{"rounds":4}}` + "\n"
	if out != want {
		t.Fatalf("merged:\n%s\nwant:\n%s", out, want)
	}
}

func TestMergeJournalFilesRejectsDstAsSource(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "a.jsonl")
	if err := os.WriteFile(src, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeJournalFiles(src, src); err == nil {
		t.Fatal("destination accepted as its own source")
	}
}

// --- partition-mode RunContext ---

// A partitioned run computes only owned replicas, classifies the rest
// Skipped, and the shard journals merge back to the bytes of an
// unpartitioned single-worker journal.
func TestRunContextPartitionRoundTrip(t *testing.T) {
	task := voterTask(12, 42)
	dir := t.TempDir()

	ref := filepath.Join(dir, "ref.jsonl")
	j, err := OpenJournal(ref, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunContext(context.Background(), task, 1, j)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Two complementary parity shards.
	shardPaths := make([]string, 2)
	ownedTotal := 0
	for i := 0; i < 2; i++ {
		i := i
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		shardPaths[i] = path
		sj, err := OpenJournalOpts(path, JournalOptions{
			Partition: func(key string, replica int) bool { return replica%2 == i },
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunContext(context.Background(), task, 3, sj)
		if err != nil {
			t.Fatal(err)
		}
		if err := sj.Close(); err != nil {
			t.Fatal(err)
		}
		skipped := 0
		for _, s := range out.States {
			if s == Skipped {
				skipped++
			}
		}
		if skipped != task.Replicas/2 {
			t.Fatalf("shard %d skipped %d replicas, want %d", i, skipped, task.Replicas/2)
		}
		completed, failed, cancelled, timedOut := out.Counts()
		if completed+failed+cancelled+timedOut+skipped != task.Replicas {
			t.Fatalf("shard %d states don't cover all replicas: %d+%d+%d+%d+%d != %d",
				i, completed, failed, cancelled, timedOut, skipped, task.Replicas)
		}
		ownedTotal += completed
		// Owned replicas must agree exactly with the full run.
		for r := 0; r < task.Replicas; r++ {
			if r%2 != i {
				if out.States[r] != Skipped {
					t.Fatalf("shard %d replica %d: state %v, want Skipped", i, r, out.States[r])
				}
				continue
			}
			if out.Results[r] != full.Results[r] {
				t.Fatalf("shard %d replica %d diverged from full run", i, r)
			}
		}
	}
	if ownedTotal != task.Replicas {
		t.Fatalf("shards computed %d replicas, want %d", ownedTotal, task.Replicas)
	}

	merged := filepath.Join(dir, "merged.jsonl")
	stats, err := MergeJournalFiles(merged, shardPaths...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged shard journals differ from reference (%s)", stats)
	}
}

func TestSkippedStateString(t *testing.T) {
	if Skipped.String() != "skipped" {
		t.Fatalf("Skipped.String() = %q", Skipped.String())
	}
}
