package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bitspread/internal/experiments"
)

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, id := range []string{"T1", "T7", "F4", "X7", "X12"} {
		if !strings.Contains(got, id) {
			t.Errorf("list missing %s:\n%s", id, got)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "T7", "-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "== T7") || !strings.Contains(got, "verdict:") {
		t.Errorf("experiment output:\n%s", got)
	}
}

func TestRunCommaSeparated(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "T6, T7", "-quick"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "== T6") || !strings.Contains(got, "== T7") {
		t.Errorf("multi-experiment output:\n%s", got)
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "T6", "-quick", "-csv"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "rule,") {
		t.Errorf("CSV header missing:\n%s", got)
	}
	if strings.Contains(got, "==") {
		t.Errorf("CSV mode leaked ASCII decoration:\n%s", got)
	}
}

// TestRunUnknownExperiment: a bad -exp must fail (main exits non-zero) and
// the error must name the valid IDs so the user can correct the call.
func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "Z9"}, &out, io.Discard)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"Z9"`) {
		t.Errorf("error does not name the bad ID: %v", err)
	}
	for _, id := range []string{"T1", "F4", "X12"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list valid ID %s: %v", id, err)
		}
	}
}

func TestRunMarkdown(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "T7", "-quick", "-md"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.HasPrefix(got, "| ID | Title |") {
		t.Errorf("markdown header missing:\n%s", got)
	}
	if !strings.Contains(got, "| T7 |") {
		t.Errorf("markdown row missing:\n%s", got)
	}
	// Pipes inside cells must be escaped so the table stays intact.
	if strings.Contains(got, " |E[X") {
		t.Errorf("unescaped pipe leaked:\n%s", got)
	}
}

func TestRunResumeNeedsJournal(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "T7", "-resume"}, &out, io.Discard); err == nil {
		t.Error("-resume without -journal accepted")
	}
}

// TestRunCancelledSweepSuggestsResume: an interrupted sweep must fail with
// the context error and, when a journal is in play, tell the user how to
// resume.
func TestRunCancelledSweepSuggestsResume(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	var out strings.Builder
	err := run(ctx, []string{"-exp", "T2", "-quick", "-journal", path}, &out, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("interruption error missing the resume hint: %v", err)
	}
}

// TestRunResumeReproducesSweep is the acceptance scenario: a sweep killed
// mid-way leaves a journal with a prefix of the work, and resuming from it
// must print the exact same final table as an uninterrupted run.
func TestRunResumeReproducesSweep(t *testing.T) {
	args := func(extra ...string) []string {
		return append([]string{"-exp", "T2", "-quick"}, extra...)
	}
	var want strings.Builder
	if err := run(context.Background(), args(), &want, io.Discard); err != nil {
		t.Fatal(err)
	}

	// Full run with a journal: same table, checkpoint on disk.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	var journalled strings.Builder
	if err := run(context.Background(), args("-journal", path), &journalled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if journalled.String() != want.String() {
		t.Error("journalled run differs from plain run")
	}

	// Simulate a sweep killed mid-way: keep only the first half of the
	// checkpoint, then resume. The table must come out identical.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too small to truncate meaningfully (%d lines)", len(lines))
	}
	partial := strings.Join(lines[:len(lines)/2], "\n") + "\n"
	if err := os.WriteFile(path, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	var resumed strings.Builder
	if err := run(context.Background(), args("-journal", path, "-resume"), &resumed, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := resumed.String()
	if !strings.Contains(got, "resuming:") {
		t.Errorf("resume banner missing:\n%s", got)
	}
	got = got[strings.Index(got, "== T2"):] // drop the banner before comparing
	if got != want.String() {
		t.Errorf("resumed sweep differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want.String(), got)
	}
}

// Flag validation for the fabric transports, table-driven: every bad
// combination must fail before any work starts.
func TestRunFabricFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"partition without journal", []string{"-partition", "0/2"}, "-partition needs -journal"},
		{"partition with join", []string{"-partition", "0/2", "-join", "a.jsonl,b.jsonl", "-journal", "m.jsonl"}, "mutually exclusive"},
		{"partition with spans", []string{"-partition", "0/2", "-journal", "s.jsonl", "-spans", "spans.jsonl"}, "-partition does not take -spans or -metrics"},
		{"partition with metrics", []string{"-partition", "0/2", "-journal", "s.jsonl", "-metrics", "-"}, "-partition does not take -spans or -metrics"},
		{"join without journal", []string{"-join", "a.jsonl,b.jsonl"}, "-join needs -journal"},
		{"join single literal", []string{"-join", "only.jsonl", "-journal", "m.jsonl"}, "at least two shard files or a glob"},
		{"join empty list", []string{"-join", " , ", "-journal", "m.jsonl"}, "at least two shard files or a glob"},
		{"bad partition syntax", []string{"-partition", "2", "-journal", "s.jsonl"}, "bad partition"},
		{"partition index out of range", []string{"-partition", "2/2", "-journal", "s.jsonl"}, "outside"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), c.args, &out, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("args %v: error %q missing %q", c.args, err, c.want)
			}
		})
	}
}

// A glob that matches nothing is an error, not an empty merge.
func TestRunJoinGlobMatchesNothing(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run(context.Background(), []string{
		"-join", filepath.Join(dir, "shard*.jsonl"),
		"-journal", filepath.Join(dir, "merged.jsonl"),
	}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "matched no shard files") {
		t.Fatalf("empty glob: %v", err)
	}
}

// The fabric acceptance scenario at the CLI: a quick sweep of every
// experiment but X13 (whose three searches dominate it) runs as partitions
// 0/2 and 1/2 in separate invocations, each computing a proper, non-empty
// share of X4's and X11's replicas; -join merges them and renders without
// computing a unit replica; and both the merged journal bytes and the
// rendered tables are identical to a single-process -workers 1 run.
func TestRunPartitionJoinByteIdentity(t *testing.T) {
	dir := t.TempDir()
	var ids []string
	for _, e := range experiments.All() {
		if e.ID != "X13" {
			ids = append(ids, e.ID)
		}
	}
	base := []string{"-exp", strings.Join(ids, ","), "-quick", "-seed", "7"}

	// Single-process reference: one worker, one journal.
	ref := filepath.Join(dir, "ref.jsonl")
	var want strings.Builder
	if err := run(context.Background(), append(base, "-workers", "1", "-journal", ref), &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(refBytes) == 0 {
		t.Fatal("reference journal empty")
	}

	// Two independent shard processes (parallel sim workers inside each).
	lines := func(data []byte, prefix string) int {
		return strings.Count(string(data), `{"task":"`+prefix)
	}
	for i := 0; i < 2; i++ {
		var out strings.Builder
		path := filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		shardArgs := append(base, "-partition", fmt.Sprintf("%d/2", i), "-journal", path)
		if err := run(context.Background(), shardArgs, &out, io.Discard); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if !strings.Contains(out.String(), "replicas checkpointed") {
			t.Fatalf("shard %d banner missing:\n%s", i, out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, unit := range []string{"X4/", "X11/"} {
			if got, all := lines(data, unit), lines(refBytes, unit); got == 0 || got >= all {
				t.Errorf("shard %d computed %d of the %d %s replicas, want a proper non-empty share", i, got, all, unit)
			}
		}
	}

	// Join via glob and render, with spans to see what it computes.
	merged := filepath.Join(dir, "merged.jsonl")
	spans := filepath.Join(dir, "join-spans.jsonl")
	var joined strings.Builder
	joinArgs := append(base, "-join", filepath.Join(dir, "shard*.jsonl"), "-journal", merged, "-spans", spans)
	if err := run(context.Background(), joinArgs, &joined, io.Discard); err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(mergedBytes) != string(refBytes) {
		t.Error("merged journal is not byte-identical to the single-process reference")
	}
	spanBytes, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Units are named after their experiment; F1 alone runs unjournaled,
	// so the join computes it (the shards skip it).
	unitStart := regexp.MustCompile(`"ev":"replica_start","task":"[TFX][0-9]+[/"]`)
	f1 := 0
	for _, m := range unitStart.FindAllString(string(spanBytes), -1) {
		if !strings.HasSuffix(m, `"F1"`) {
			t.Errorf("-join computed a unit replica: %s", m)
			break
		}
		f1++
	}
	if f1 == 0 {
		t.Error("no F1 replica_start span: the span check matches nothing")
	}

	got := joined.String()
	if !strings.Contains(got, "joined") {
		t.Errorf("join banner missing:\n%s", got)
	}
	got = got[strings.Index(got, "== T1"):]
	wantTables := want.String()[strings.Index(want.String(), "== T1"):]
	if got != wantTables {
		t.Errorf("joined tables differ from single-process run:\n--- want\n%s\n--- got\n%s", wantTables, got)
	}
}

// Overlapping shards are legal: a full 0/1 "shard" plus a 0/2 shard merge
// with every duplicate verified and deduplicated.
func TestRunJoinOverlappingShards(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-exp", "T2", "-quick", "-seed", "7"}
	for i, p := range []string{"0/2", "0/1"} {
		var out strings.Builder
		args := append(base, "-partition", p, "-journal", filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i)))
		if err := run(context.Background(), args, &out, io.Discard); err != nil {
			t.Fatalf("shard %s: %v", p, err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	var joined strings.Builder
	args := append(base, "-join", filepath.Join(dir, "shard0.jsonl")+","+filepath.Join(dir, "shard1.jsonl"), "-journal", merged)
	if err := run(context.Background(), args, &joined, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(joined.String(), "duplicates deduped") {
		t.Errorf("join stats missing dedup count:\n%s", joined.String())
	}

	// Reference for byte comparison.
	ref := filepath.Join(dir, "ref.jsonl")
	var want strings.Builder
	if err := run(context.Background(), append(base, "-workers", "1", "-journal", ref), &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	refBytes, _ := os.ReadFile(ref)
	gotBytes, _ := os.ReadFile(merged)
	if string(gotBytes) != string(refBytes) {
		t.Error("overlapping merge differs from reference")
	}
}
