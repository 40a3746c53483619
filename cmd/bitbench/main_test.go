package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickArgs keeps the smoke test fast: a tiny packed-scale matrix with
// minimal timing windows.
func quickArgs(out string) []string {
	return []string{"-out", out, "-suite", "packed-scale", "-scale-procs", "1",
		"-scale-ns", "2048", "-scale-shards", "1,2", "-budget", "2ms"}
}

func TestRunAppendsTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_engines.json")
	var msg strings.Builder
	for i := 0; i < 2; i++ {
		if err := run(context.Background(), quickArgs(path), &msg); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(msg.String(), "appended") {
		t.Errorf("missing summary line: %q", msg.String())
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", lines, err)
		}
		if rec.Timestamp == "" || rec.GoVersion == "" || rec.GoMaxProcs <= 0 {
			t.Errorf("line %d metadata incomplete: %+v", lines, rec)
		}
		for _, key := range []string{
			"packed-scale/packed/p=1/shards=1/n=2048", "packed-scale/packed/p=1/shards=2/n=2048",
			"packed-scale/chunked/p=1/shards=1/n=2048", "packed-scale/chunked/p=1/shards=2/n=2048",
		} {
			m, ok := rec.Benchmarks[key]
			if !ok || m.NsPerOp <= 0 || m.Ops <= 0 {
				t.Errorf("line %d: benchmark %q missing or empty (%+v)", lines, key, m)
			}
		}
	}
	if lines != 2 {
		t.Errorf("trajectory has %d lines after two runs, want 2", lines)
	}
}

func TestRunStdout(t *testing.T) {
	var msg strings.Builder
	if err := run(context.Background(), quickArgs("-"), &msg); err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal([]byte(msg.String()), &rec); err != nil {
		t.Fatalf("stdout record not valid JSON: %v\n%s", err, msg.String())
	}
}

func TestRunPackedScaleSuite(t *testing.T) {
	var msg strings.Builder
	err := run(context.Background(), []string{"-out", "-", "-suite", "packed-scale",
		"-scale-procs", "1,2", "-scale-ns", "2048,4096", "-scale-shards", "1,3",
		"-budget", "2ms"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal([]byte(msg.String()), &rec); err != nil {
		t.Fatalf("stdout record not valid JSON: %v\n%s", err, msg.String())
	}
	// 2 procs × 2 ns × 2 shard counts × {packed, chunked} = 16 cells.
	if len(rec.Benchmarks) != 16 {
		t.Fatalf("packed-scale produced %d cells, want 16: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	for key, m := range rec.Benchmarks {
		if !strings.HasPrefix(key, "packed-scale/") {
			t.Errorf("unexpected key %q in packed-scale record", key)
		}
		if m.NsPerOp <= 0 || m.Ops <= 0 || m.AgentRoundsPerSec <= 0 {
			t.Errorf("cell %q missing measurements: %+v", key, m)
		}
	}
	for _, key := range []string{
		"packed-scale/packed/p=1/shards=1/n=2048",
		"packed-scale/chunked/p=2/shards=3/n=4096",
	} {
		if _, ok := rec.Benchmarks[key]; !ok {
			t.Errorf("expected cell %q missing", key)
		}
	}
}

func TestRunPackedScaleSkipsUnsatisfiableShards(t *testing.T) {
	// n=64 is one bitset word: shards=2 cannot give each shard a whole
	// word, so only the shards=1 cells survive.
	var msg strings.Builder
	err := run(context.Background(), []string{"-out", "-", "-suite", "packed-scale",
		"-scale-procs", "1", "-scale-ns", "64", "-scale-shards", "1,2",
		"-budget", "1ms"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal([]byte(msg.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Benchmarks) != 2 {
		t.Errorf("want 2 surviving cells (packed+chunked at shards=1), got %+v", rec.Benchmarks)
	}
	// And an entirely unsatisfiable matrix is an error, not an empty record.
	if err := run(context.Background(), []string{"-out", "-", "-suite", "packed-scale",
		"-scale-ns", "64", "-scale-shards", "2", "-budget", "1ms"}, &msg); err == nil {
		t.Error("empty packed-scale matrix accepted")
	}
}

func TestRunFabricScaleSuite(t *testing.T) {
	var msg strings.Builder
	err := run(context.Background(), []string{"-out", "-", "-suite", "fabric-scale",
		"-fabric-workers", "1,2", "-fabric-partitions", "3", "-fabric-exp", "T2"}, &msg)
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal([]byte(msg.String()), &rec); err != nil {
		t.Fatalf("stdout record not valid JSON: %v\n%s", err, msg.String())
	}
	if len(rec.Benchmarks) != 2 {
		t.Fatalf("fabric-scale produced %d cells, want 2: %+v", len(rec.Benchmarks), rec.Benchmarks)
	}
	var ops []int64
	for _, key := range []string{
		"fabric-scale/workers=1/parts=3",
		"fabric-scale/workers=2/parts=3",
	} {
		m, ok := rec.Benchmarks[key]
		if !ok || m.Ops <= 0 || m.NsPerOp <= 0 || m.TasksPerSec <= 0 {
			t.Fatalf("cell %q missing measurements: %+v", key, m)
		}
		ops = append(ops, m.Ops)
	}
	// Every cell merges the identical sweep, so the checkpoint counts
	// must agree (byte identity itself is asserted inside the suite).
	if ops[0] != ops[1] {
		t.Errorf("cells merged %v entries, want identical counts", ops)
	}

	// Bad axes are errors, not empty records.
	for name, args := range map[string][]string{
		"bad workers":    {"-out", "-", "-suite", "fabric-scale", "-fabric-workers", "0"},
		"bad partitions": {"-out", "-", "-suite", "fabric-scale", "-fabric-partitions", "0"},
		"bad experiment": {"-out", "-", "-suite", "fabric-scale", "-fabric-exp", "nope"},
	} {
		if err := run(context.Background(), args, &msg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestRunRejectsTinyPopulation(t *testing.T) {
	var msg strings.Builder
	if err := run(context.Background(), []string{"-suite", "packed-scale", "-scale-ns", "2"}, &msg); err == nil {
		t.Error("population 2 accepted")
	}
	// The retired micro-benchmark suites are errors, not empty records.
	for _, suite := range []string{"engines", "agents", "all"} {
		if err := run(context.Background(), []string{"-out", "-", "-suite", suite}, &msg); err == nil {
			t.Errorf("retired suite %q accepted", suite)
		}
	}
}

// TestRunInterruptedStillFlushes: a signal must not lose the session — a
// record flagged interrupted is appended with whatever finished, and the
// run reports the cancellation.
func TestRunInterruptedStillFlushes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	path := filepath.Join(t.TempDir(), "BENCH_engines.json")
	var msg strings.Builder
	err := run(ctx, quickArgs(path), &msg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("no record flushed after interruption: %v", rerr)
	}
	var rec record
	if jerr := json.Unmarshal(data, &rec); jerr != nil {
		t.Fatalf("flushed record not valid JSON: %v\n%s", jerr, data)
	}
	if !rec.Interrupted {
		t.Errorf("record not flagged interrupted: %+v", rec)
	}
}
