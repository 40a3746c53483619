package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bitspread/internal/engine"
)

// tinySizes runs every workload in a fraction of a second.
var tinySizes = sizes{
	exps: []string{"T2"}, partitions: 2,
	agentsN: 1 << 12, agentsRounds: 4, agentsReplicas: 2,
	shardedN: 1 << 14, shardedRounds: 2,
	jobN: 256, jobReplicas: 2, warmupJobs: 2, repeatSpecs: 4,
}

func runTiny(t *testing.T, name string, trace bool) record {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	o := options{workload: name, seed: 7, seconds: 1, trace: trace}
	rec, err := runWorkload(context.Background(), w, o, tinySizes, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rec
}

func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		rec := runTiny(t, w.name, false)
		if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d checks=%v",
				w.name, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Checks)
		}
		for name, m := range rec.Result.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: metric %s = %v, want > 0", w.name, name, m.Value)
			}
		}
		if len(rec.Setups) != setupReps {
			t.Errorf("%s: %d set-ups, want %d", w.name, len(rec.Setups), setupReps)
		}
	}
}

// openTiny sets a workload up at tiny size and runs operation 0.
func openTiny(t *testing.T, name string) session {
	t.Helper()
	w, _ := workloadByName(name)
	ctx := context.Background()
	s, err := w.open(ctx, t.TempDir(), 7, tinySizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	if err := s.op(ctx, 0, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChecksRejectCorruptOutput(t *testing.T) {
	ctx := context.Background()

	sweep := openTiny(t, "sweep").(*sweepSession)
	if err := sweep.verify(ctx); err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	sweep.merged[len(sweep.merged)/2] ^= 1
	if sweep.verify(ctx) == nil {
		t.Error("sweep verify accepted a merged journal with a flipped byte")
	}

	fab := openTiny(t, "fabric").(*fabricSession)
	if err := fab.verify(ctx); err != nil {
		t.Fatalf("clean fabric: %v", err)
	}
	fab.merged[len(fab.merged)/3] ^= 1
	if fab.verify(ctx) == nil {
		t.Error("fabric verify accepted a merged journal with a flipped byte")
	}

	if checkGolden("sweep", []byte("x"), digest([]byte("x")), goldenSeed, fullSizes) == nil {
		t.Error("golden check accepted a journal that is not the golden one")
	}

	agents := openTiny(t, "agents").(*agentsSession)
	if err := agents.verify(ctx); err != nil {
		t.Fatalf("clean agents: %v", err)
	}
	short := append([]engine.Result(nil), agents.first...)
	short[1].Rounds--
	if checkTrap(short, tinySizes.agentsN, tinySizes.agentsRounds) == nil {
		t.Error("trap check accepted a replica that stopped early")
	}
	agents.first[0].FinalCount++
	if agents.verify(ctx) == nil {
		t.Error("agents verify accepted a batched replica that differs from its solo run")
	}

	fresh := openTiny(t, "service-fresh").(*serviceSession)
	id, body, err := fresh.job(ctx, fresh.spec(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkJobResult(id, body, tinySizes.jobReplicas); err != nil {
		t.Fatalf("clean result: %v", err)
	}
	// Drop the last replica's result from the results array.
	cut := bytes.LastIndex(body, []byte(`,{"Converged"`))
	if cut < 0 {
		t.Fatalf("result body has no second replica: %s", body)
	}
	dropped := append(append([]byte(nil), body[:cut]...), body[bytes.LastIndexByte(body, ']'):]...)
	if checkJobResult(id, dropped, tinySizes.jobReplicas) == nil {
		t.Error("job check accepted a result with a dropped replica")
	}

	repeat := openTiny(t, "service-repeat").(*serviceSession)
	if checkRepeat(repeat.ids[0], repeat.ids[0], repeat.bodies[0], repeat.bodies[1]) == nil {
		t.Error("repeat check accepted a different result body")
	}
	if checkRepeat(repeat.ids[0], repeat.ids[1], repeat.bodies[0], repeat.bodies[0]) == nil {
		t.Error("repeat check accepted a different job ID")
	}
}

// fakeRecords builds n untraced records of workload w whose op_latency_ref
// is 100·scale with a little deterministic jitter.
func fakeRecords(w string, n int, scale float64, h host) []record {
	recs := make([]record, n)
	for i := range recs {
		jitter := 1 + 0.01*float64(i%3-1)
		recs[i] = record{Kind: "e2e", Workload: w, Host: h, Result: result{
			Correct: true, Attempted: 100, Metrics: map[string]metric{
				"op_latency_ref": {100 * scale * jitter, "ref"},
				"rss_mb":         {10 * jitter, "MB"},
			}}}
	}
	return recs
}

func TestCompare(t *testing.T) {
	def, err := loadDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	h := host{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "test", GoVersion: "go"}
	verdicts := func(c comparison) map[string]string {
		out := map[string]string{}
		for _, r := range c.rows {
			out[r.workload+"/"+r.metric] = r.verdict
		}
		return out
	}

	same, err := compareRecords(def, fakeRecords("sweep", 10, 1, h), fakeRecords("sweep", 10, 1, h))
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range verdicts(same) {
		if v != "no change" {
			t.Errorf("identical records: %s is %q, want no change", key, v)
		}
	}
	if len(same.warnings) != 0 {
		t.Errorf("identical records warned: %v", same.warnings)
	}

	// op_latency_ref's bound is 24%, so +30% must be flagged.
	slower, err := compareRecords(def, fakeRecords("sweep", 10, 1, h), fakeRecords("sweep", 10, 1.3, h))
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts(slower)["sweep/op_latency_ref"]; v != "REGRESSION" {
		t.Errorf("+30%% op_latency_ref on sweep: verdict %q, want REGRESSION", v)
	}
	var buf bytes.Buffer
	slower.print(&buf)
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("printed comparison does not flag the regression:\n%s", buf.String())
	}

	faster, err := compareRecords(def, fakeRecords("sweep", 10, 1, h), fakeRecords("sweep", 10, 0.8, h))
	if err != nil {
		t.Fatal(err)
	}
	if v := verdicts(faster)["sweep/op_latency_ref"]; v != "gain" {
		t.Errorf("-20%% op_latency_ref on sweep: verdict %q, want gain", v)
	}

	failing := fakeRecords("sweep", 10, 1, h)
	failing[3].Result.Failed = 1
	if c, _ := compareRecords(def, fakeRecords("sweep", 10, 1, h), failing); len(c.warnings) != 1 {
		t.Errorf("a rise in failures gave warnings %v, want one", c.warnings)
	}

	other := h
	other.CPUModel = "another"
	if _, err := compareRecords(def, fakeRecords("sweep", 10, 1, h), fakeRecords("sweep", 10, 1, other)); err == nil {
		t.Error("records from different hosts were compared")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

// Every workload and metric BENCHMARK.json names is one the benchmark
// emits, and the other way round.
func TestBenchmarkDefinitionMatchesEmittedNames(t *testing.T) {
	def, err := loadDef("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var defined, emitted []string
	for _, w := range def.Workloads {
		defined = append(defined, w.Name)
	}
	for _, w := range workloads {
		emitted = append(emitted, w.name)
	}
	sameNames(t, "workloads", defined, emitted)

	names := func(ms []metricDef) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		return out
	}
	plain := runTiny(t, "service-repeat", false)
	sameNames(t, "end_to_end metrics", names(def.EndToEnd), keys(plain.Result.Metrics))
	traced := runTiny(t, "service-repeat", true)
	sameNames(t, "per_layer metrics", names(def.PerLayer), keys(traced.Result.Metrics))
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		got := plain.Result.Metrics[m.Name]
		if traced.Result.Metrics[m.Name].Unit != "" {
			got = traced.Result.Metrics[m.Name]
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s emitted with unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func sameNames(t *testing.T, what string, defined, emitted []string) {
	t.Helper()
	slices.Sort(defined)
	slices.Sort(emitted)
	if !slices.Equal(defined, emitted) {
		t.Errorf("%s: BENCHMARK.json has %v, the benchmark emits %v", what, defined, emitted)
	}
}

// hangEnv makes this test binary, re-executed as a workload child, hang
// instead of running its tests.
const hangEnv = "SPREADBENCH_TEST_HANG"

func TestMain(m *testing.M) {
	if os.Getenv(hangEnv) == "1" {
		time.Sleep(time.Hour)
	}
	os.Exit(m.Run())
}

// A child killed at its deadline, or one that exits with an error, still
// yields a record with one failed operation, and the suite goes on to the
// next workload before exiting 1.
func TestFailedChildrenAreCountedAndTheSuiteGoesOn(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 7, seconds: 1, out: "-"}
	check := func(what string, stdout string, wantReason string) {
		t.Helper()
		var recs []record
		for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
			var rec record
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Kind != "" {
				recs = append(recs, rec)
			}
		}
		if len(recs) != 2 || recs[0].Workload != "sweep" || recs[1].Workload != "agents" {
			t.Fatalf("%s: records %+v, want one for sweep and one for agents", what, recs)
		}
		for _, rec := range recs {
			r := rec.Result
			if r.Correct || r.Attempted != 1 || r.Failed != 1 || len(r.Metrics) != 0 {
				t.Errorf("%s: %s result %+v, want 1 attempted, 1 failed, no metrics", what, rec.Workload, r)
			}
			if len(rec.Checks) != 1 || !strings.Contains(rec.Checks[0], wantReason) {
				t.Errorf("%s: %s failed checks %q, want one mentioning %q", what, rec.Workload, rec.Checks, wantReason)
			}
		}
	}

	t.Setenv(hangEnv, "1")
	var stdout bytes.Buffer
	start := time.Now()
	if code := runSuite(context.Background(), exe, []string{"sweep", "agents"}, o, 200*time.Millisecond, &stdout, io.Discard); code != 1 {
		t.Errorf("killed children: exit %d, want 1", code)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("killed children took %s", d)
	}
	check("killed", stdout.String(), "killed at its")

	// Without the hang, the test binary rejects the -child flag and exits 2.
	t.Setenv(hangEnv, "0")
	stdout.Reset()
	if code := runSuite(context.Background(), exe, []string{"sweep", "agents"}, o, time.Minute, &stdout, io.Discard); code != 1 {
		t.Errorf("crashed children: exit %d, want 1", code)
	}
	check("crashed", stdout.String(), "exit status 2")
}

func TestUnknownNamesAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-suite", "nope"},
		{"-workload", "nope"},
		{"-workload", "sweep", "-trace", "2"},
		{"-compare", "only-one-file"},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), args, io.Discard, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want an error", args)
		}
		if stderr.Len() == 0 {
			t.Errorf("%v: no diagnostic", args)
		}
	}
}
