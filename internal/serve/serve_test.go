package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitspread/internal/obs"
	"bitspread/internal/sim"
)

// testSpec is a small job that finishes in well under a second.
func testSpec(seed uint64) JobSpec {
	return JobSpec{Name: "t", N: 64, Z: 1, Rule: "voter", Replicas: 2, Seed: seed, MaxRounds: 200}
}

// longSpec is a job that runs until cancelled or timed out: Minority(3)
// from the worst-case start is the paper's trap, so every replica runs to
// its 50,000,000-round cap, about 22 s of count-engine rounds at n = 2¹³
// on a 2-vCPU host.
func longSpec(seed uint64) JobSpec {
	return JobSpec{Name: "long", N: 1 << 13, Z: 1, Rule: "minority", Ell: 3, Replicas: 4, Seed: seed, MaxRounds: 50_000_000}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// submitJSON posts a spec and returns the response code, headers, and
// decoded status body (zero-valued for error bodies).
func submitJSON(t *testing.T, ts *httptest.Server, spec JobSpec, tenant string) (int, http.Header, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var js JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, resp.Header, js
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var js JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, js
}

// waitTerminal polls until the job reaches an end state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	for i := 0; i < 4000; i++ {
		code, js := getStatus(t, ts, id)
		if code == http.StatusOK {
			switch js.State {
			case "done", "failed", "cancelled":
				return js
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// getResult fetches the canonical result payload bytes.
func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result for %s: status %d", id, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read result: %v", err)
	}
	return buf.Bytes()
}

// metricsText fetches the /metrics exposition.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	return buf.String()
}

func TestSubmitRunResultAndDedup(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec := testSpec(1)

	code, hdr, js := submitJSON(t, ts, spec, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, want 202", code)
	}
	if js.ID == "" || js.State != "queued" && js.State != "running" && js.State != "done" {
		t.Fatalf("submit status: %+v", js)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+js.ID {
		t.Fatalf("Location = %q", loc)
	}

	done := waitTerminal(t, ts, js.ID)
	if done.State != "done" {
		t.Fatalf("job ended %q (error %q), want done", done.State, done.Error)
	}
	if done.Completed != spec.Replicas {
		t.Fatalf("completed %d, want %d", done.Completed, spec.Replicas)
	}
	if done.ResultURL == "" {
		t.Fatalf("done status missing result_url: %+v", done)
	}

	payload := getResult(t, ts, js.ID)
	var res JobResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	if res.ID != js.ID || res.Replicas != spec.Replicas || len(res.Results) != spec.Replicas {
		t.Fatalf("result = %+v", res)
	}

	// An identical submission is deduped against the finished record.
	code, _, again := submitJSON(t, ts, spec, "")
	if code != http.StatusOK || !again.Cached || again.ID != js.ID {
		t.Fatalf("resubmit: code %d status %+v, want 200 cached", code, again)
	}

	mt := metricsText(t, ts)
	for _, want := range []string{"bitspreadd_jobs_done_total 1", "bitspreadd_jobs_deduped_total 1"} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	bad := []string{
		`{"n":64,"z":1,"rule":"nope","seed":1}`,
		`{"n":64,"z":1,"rule":"voter","seed":1,"mode":"warp"}`,
		`{"n":64,"z":1,"rule":"voter","seed":1,"mode":"aggregated"}`,
		`{"n":64,"z":1,"rule":"voter","seed":1,"bogus_field":3}`,
		`{"n":64,"z":7,"rule":"voter","seed":1}`,
		`{"n":64,"z":1,"rule":"voter","seed":1,"timeout":"soon"}`,
		`{"n":1099511627776,"z":1,"rule":"voter","seed":1,"mode":"agents"}`,
		`{"n":64,"z":1,"rule":"voter","seed":1,"replicas":1073741824}`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		var msg bytes.Buffer
		_, err = msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: code %d, want 400", body, resp.StatusCode)
		}
		unknownMode := strings.Contains(body, `"mode"`) && !strings.Contains(body, `"mode":"agents"`)
		if unknownMode && !strings.Contains(msg.String(), "(want parallel, sequential, agents)") {
			t.Errorf("spec %s: error %s does not list the modes", body, msg.String())
		}
	}
}

func TestQuotaRejectsWithRetryAfter(t *testing.T) {
	var secs atomic.Int64
	_, ts := newTestServer(t, Options{
		Workers:     2,
		TenantRate:  1,
		TenantBurst: 2,
		now:         func() time.Time { return time.Unix(1000+secs.Load(), 0) },
	})

	for seed := uint64(1); seed <= 2; seed++ {
		if code, _, _ := submitJSON(t, ts, testSpec(seed), "alice"); code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d, want 202", seed, code)
		}
	}
	code, hdr, _ := submitJSON(t, ts, testSpec(3), "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: code %d, want 429", code)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}

	// Quotas are per tenant: bob is unaffected by alice's flood.
	if code, _, _ := submitJSON(t, ts, testSpec(4), "bob"); code != http.StatusAccepted {
		t.Fatalf("bob: code %d, want 202", code)
	}

	// After the advertised wait, alice's bucket has refilled one token.
	secs.Add(int64(ra))
	if code, _, _ := submitJSON(t, ts, testSpec(3), "alice"); code != http.StatusAccepted {
		t.Fatalf("post-refill submit: code %d, want 202", code)
	}

	if mt := metricsText(t, ts); !strings.Contains(mt, "bitspreadd_rejected_quota_total 1") {
		t.Errorf("metrics missing quota rejection count")
	}
}

func TestQueueFullRejectsBounded(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	_, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 2,
		testHook:   func(jb *job) { started <- jb.id; <-release },
	})

	// Job 1 occupies the only worker...
	if code, _, _ := submitJSON(t, ts, testSpec(1), ""); code != http.StatusAccepted {
		t.Fatalf("job 1: code %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up job 1")
	}
	// ...jobs 2 and 3 fill the queue...
	for seed := uint64(2); seed <= 3; seed++ {
		if code, _, _ := submitJSON(t, ts, testSpec(seed), ""); code != http.StatusAccepted {
			t.Fatalf("job %d: code %d", seed, code)
		}
	}
	// ...and job 4 is shed at the door with a drain estimate.
	code, hdr, _ := submitJSON(t, ts, testSpec(4), "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: code %d, want 503", code)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
	}

	// Bounded memory: the rejected job left no record behind.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list) != 3 {
		t.Fatalf("job table has %d entries, want 3 (rejection must not allocate)", len(list))
	}

	unblock()
	for _, js := range list {
		if st := waitTerminal(t, ts, js.ID); st.State != "done" {
			t.Errorf("job %s ended %q, want done", js.ID, st.State)
		}
	}
	if mt := metricsText(t, ts); !strings.Contains(mt, "bitspreadd_rejected_queue_total 1") {
		t.Errorf("metrics missing queue rejection count")
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	s, ts := newTestServer(t, Options{
		Workers:  1,
		testHook: func(jb *job) { started <- jb.id; <-release },
	})

	_, _, js := submitJSON(t, ts, testSpec(1), "")
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the job")
	}

	s.BeginDrain()

	// Readiness flips immediately; liveness stays up.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", resp.StatusCode)
	}

	// New work is rejected with a retry hint; in-flight work is not touched.
	code, hdr, _ := submitJSON(t, ts, testSpec(2), "")
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("submit during drain: code %d Retry-After %q", code, hdr.Get("Retry-After"))
	}

	unblock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The in-flight job finished and its result is still served.
	if _, st := getStatus(t, ts, js.ID); st.State != "done" {
		t.Fatalf("in-flight job ended %q, want done", st.State)
	}
	if payload := getResult(t, ts, js.ID); len(payload) == 0 {
		t.Fatal("empty result after drain")
	}
}

func TestDrainDeadlineInterruptsWithoutTerminalRecord(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	dir := t.TempDir()
	s, ts := newTestServer(t, Options{
		DataDir:  dir,
		Workers:  1,
		testHook: func(jb *job) { started <- jb.id; <-release },
	})

	_, _, js := submitJSON(t, ts, longSpec(1), "")
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the job")
	}

	// Drain with an already-dead context: its deadline branch fires at
	// once and cancels the base context while the worker is still held at
	// the gate, so on release the job is interrupted the moment it reaches
	// the engine.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- s.Drain(ctx) }()
	for i := 0; i < 4000 && s.baseCtx.Err() == nil; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.baseCtx.Err() == nil {
		t.Fatal("Drain never cancelled the base context")
	}
	unblock()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}

	// The interrupted job carries no terminal record: it reports queued and
	// the intent log holds a submit with no end, so a restart re-runs it.
	if _, st := getStatus(t, ts, js.ID); st.State != "queued" {
		t.Fatalf("interrupted job state %q, want queued", st.State)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs.jsonl"))
	if err != nil {
		t.Fatalf("read intent log: %v", err)
	}
	if strings.Contains(string(data), `"ev":"end"`) {
		t.Fatalf("interrupted job got a terminal record:\n%s", data)
	}
}

// A job whose worker panics fails alone: runJob's recover books the
// panic, and the daemon and its one-worker pool carry on.
func TestPanickingJobIsIsolated(t *testing.T) {
	var started atomic.Int32
	_, ts := newTestServer(t, Options{Workers: 1, testHook: func(*job) {
		if started.Add(1) == 1 {
			panic("injected worker panic")
		}
	}})

	_, _, js := submitJSON(t, ts, testSpec(1), "")
	st := waitTerminal(t, ts, js.ID)
	if st.State != "failed" || !strings.Contains(st.Error, "job panicked") {
		t.Fatalf("panicking job ended %+v, want failed with panic error", st)
	}

	// The daemon survived: liveness is green and the next job completes
	// normally on the same worker pool.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %d", resp.StatusCode)
	}
	_, _, js2 := submitJSON(t, ts, testSpec(2), "")
	if st := waitTerminal(t, ts, js2.ID); st.State != "done" {
		t.Fatalf("post-panic job ended %q, want done", st.State)
	}
	if mt := metricsText(t, ts); !strings.Contains(mt, "bitspreadd_job_panics_total 1") {
		t.Errorf("metrics missing panic count")
	}
}

// A spec's timeout bounds its job: a job that cannot finish within it
// fails as timed out.
func TestSpecTimeoutFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	spec := longSpec(1)
	spec.Timeout = "1ms"
	_, _, js := submitJSON(t, ts, spec, "")
	st := waitTerminal(t, ts, js.ID)
	if st.State != "failed" || !strings.Contains(st.Error, "timed out") {
		t.Fatalf("job with a 1ms spec timeout ended %+v, want failed timeout", st)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	_, ts := newTestServer(t, Options{
		Workers:  1,
		testHook: func(jb *job) { started <- jb.id; <-release },
	})

	_, _, running := submitJSON(t, ts, longSpec(1), "")
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started job 1")
	}
	_, _, queued := submitJSON(t, ts, testSpec(2), "")

	for _, id := range []string{running.ID, queued.ID} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatalf("cancel request: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("cancel: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: code %d, want 202", id, resp.StatusCode)
		}
	}
	unblock()

	for _, id := range []string{running.ID, queued.ID} {
		if st := waitTerminal(t, ts, id); st.State != "cancelled" {
			t.Errorf("job %s ended %q, want cancelled", id, st.State)
		}
		// Cancelling a finished job conflicts, and its result is gone.
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("re-cancel: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("re-cancel %s: code %d, want 409", id, resp.StatusCode)
		}
		rres, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		rres.Body.Close()
		if rres.StatusCode != http.StatusConflict {
			t.Errorf("result of cancelled %s: code %d, want 409", id, rres.StatusCode)
		}
	}
}

func TestEventStreamEndsWithJobDone(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)

	_, ts := newTestServer(t, Options{
		Workers:  1,
		testHook: func(jb *job) { started <- jb.id; <-release },
	})

	spec := JobSpec{Name: "ev", N: 32, Z: 1, Rule: "voter", Replicas: 1, Seed: 5, MaxRounds: 64}
	_, _, js := submitJSON(t, ts, spec, "")
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never started the job")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer resp.Body.Close()
	unblock()

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.Type != "job_done" || last.State != "done" {
		t.Fatalf("final event = %+v, want job_done/done", last)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Type]++
	}
	if counts["round"] == 0 || counts["replica_done"] != spec.Replicas {
		t.Fatalf("event mix %v: want rounds > 0 and %d replica_done", counts, spec.Replicas)
	}
}

// TestRestartResumesJournalByteIdentical is the in-process half of the
// crash/resume acceptance test (the subprocess SIGKILL version lives in
// cmd/bitspreadd): a daemon that died holding an accepted, half-finished
// job — submit fsynced, 8 of 20 replicas checkpointed, no terminal
// record — must finish it after restart with a result byte-identical to
// an uninterrupted run.
func TestRestartResumesJournalByteIdentical(t *testing.T) {
	spec := JobSpec{Name: "resume", N: 256, Z: 1, Rule: "voter", Replicas: 20, Seed: 7, MaxRounds: 300}
	spec.normalize()
	task, err := spec.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	id := jobID(task, spec.Replicas)

	// Fabricate the data dir of the killed daemon.
	dir := t.TempDir()
	j, err := sim.OpenJournal(filepath.Join(dir, "replicas.jsonl"), false)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	pre := task
	pre.Replicas = 8
	if _, err := sim.RunContext(context.Background(), pre, 1, j); err != nil {
		t.Fatalf("pre-run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	lg, _, err := openJobLog(filepath.Join(dir, "jobs.jsonl"), nil)
	if err != nil {
		t.Fatalf("job log: %v", err)
	}
	if err := lg.append(jobLogEntry{Ev: "submit", ID: id, Spec: &spec}); err != nil {
		t.Fatalf("append submit: %v", err)
	}
	if err := lg.close(); err != nil {
		t.Fatalf("close job log: %v", err)
	}

	// Restart: the job is re-enqueued at startup and completes, serving the
	// 8 checkpointed replicas from the journal.
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Options{DataDir: dir, Workers: 1, Registry: reg})
	if st := waitTerminal(t, ts, id); st.State != "done" {
		t.Fatalf("resumed job ended %q (error %q), want done", st.State, st.Error)
	}
	resumed := getResult(t, ts, id)
	// Journal-served replicas never reach an engine (they emit no observer
	// events), so only the 12 unfinished ones show up as run replicas.
	if got := reg.Counter("bitspread_replicas_total").Value(); got != 12 {
		t.Fatalf("replicas run = %d, want 12 (8 of 20 served from the journal)", got)
	}

	// Control: the same job, uninterrupted, in a fresh universe.
	_, ts2 := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 1})
	if code, _, _ := submitJSON(t, ts2, spec, ""); code != http.StatusAccepted {
		t.Fatalf("control submit: code %d", code)
	}
	if st := waitTerminal(t, ts2, id); st.State != "done" {
		t.Fatalf("control job ended %q, want done", st.State)
	}
	control := getResult(t, ts2, id)

	if !bytes.Equal(resumed, control) {
		t.Fatalf("resumed result differs from uninterrupted run:\nresumed: %s\ncontrol: %s", resumed, control)
	}

	// A third daemon life over the same dir serves the result straight from
	// the content-addressed cache without recomputing anything. Daemon
	// lives are sequential: the journal's exclusive flock refuses a second
	// concurrent writer, so the previous life must shut down first.
	ts.Close()
	srv.Close()
	_, ts3 := newTestServer(t, Options{DataDir: dir, Workers: 1})
	code, _, js := submitJSON(t, ts3, spec, "")
	if code != http.StatusOK || !js.Cached {
		t.Fatalf("cached resubmit: code %d status %+v, want 200 cached", code, js)
	}
	if cached := getResult(t, ts3, id); !bytes.Equal(cached, control) {
		t.Fatal("cache round-trip changed the payload")
	}
}

// TestReplayDropsJobOfRemovedMode: an intent log written before the
// aggregated mode was removed may hold an accepted, unfinished aggregated
// job. On restart the daemon drops that job, logs why, and still finishes
// the parallel job beside it with the payload of an uninterrupted run.
func TestReplayDropsJobOfRemovedMode(t *testing.T) {
	spec := testSpec(11)
	spec.normalize()
	task, err := spec.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	id := jobID(task, spec.Replicas)
	old := spec
	old.Mode = "aggregated"
	oldTask := task
	oldTask.Mode = 4 // the aggregated mode's number, so the ID it was accepted under
	oldID := jobID(oldTask, old.Replicas)

	ts, logged := replayServer(t,
		jobLogEntry{Ev: "submit", ID: oldID, Spec: &old},
		jobLogEntry{Ev: "submit", ID: id, Spec: &spec})
	if want := "serve: replay " + oldID + ": unbuildable spec dropped"; !strings.Contains(logged, want) {
		t.Errorf("log %q lacks %q", logged, want)
	}
	if code, _ := getStatus(t, ts, oldID); code != http.StatusNotFound {
		t.Errorf("dropped job: status code %d, want 404", code)
	}
	if st := waitTerminal(t, ts, id); st.State != "done" {
		t.Fatalf("replayed job ended %q (error %q), want done", st.State, st.Error)
	}
	replayed := getResult(t, ts, id)

	_, ts2 := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 1})
	if code, _, _ := submitJSON(t, ts2, spec, ""); code != http.StatusAccepted {
		t.Fatalf("control submit: code %d", code)
	}
	if st := waitTerminal(t, ts2, id); st.State != "done" {
		t.Fatalf("control job ended %q, want done", st.State)
	}
	if control := getResult(t, ts2, id); !bytes.Equal(replayed, control) {
		t.Fatalf("replayed result differs from uninterrupted run:\nreplayed: %s\ncontrol:  %s", replayed, control)
	}
}

// TestReplayDropsOversizedJob: an intent log may hold specs accepted
// before the admission bounds existed. Replay drops them as unbuildable
// instead of allocating for them on every restart.
func TestReplayDropsOversizedJob(t *testing.T) {
	spec := testSpec(12)
	spec.normalize()
	task, err := spec.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	id := jobID(task, spec.Replicas)
	wide := spec
	wide.Replicas = 1 << 30
	huge := spec
	huge.Mode, huge.N = "agents", 1<<40
	hugeTask := task
	hugeTask.Mode, hugeTask.Config.N = sim.AgentLevel, huge.N
	dropped := []string{jobID(task, wide.Replicas), jobID(hugeTask, huge.Replicas)}

	ts, logged := replayServer(t,
		jobLogEntry{Ev: "submit", ID: dropped[0], Spec: &wide},
		jobLogEntry{Ev: "submit", ID: dropped[1], Spec: &huge},
		jobLogEntry{Ev: "submit", ID: id, Spec: &spec})
	for _, d := range dropped {
		if want := "serve: replay " + d + ": unbuildable spec dropped"; !strings.Contains(logged, want) {
			t.Errorf("log %q lacks %q", logged, want)
		}
		if code, _ := getStatus(t, ts, d); code != http.StatusNotFound {
			t.Errorf("dropped job %s: status code %d, want 404", d, code)
		}
	}
	if st := waitTerminal(t, ts, id); st.State != "done" {
		t.Fatalf("replayed job ended %q (error %q), want done", st.State, st.Error)
	}
}

// replayServer writes entries to a fresh data dir's intent log and starts
// a daemon on it, returning the daemon and what it logged while replaying.
func replayServer(t *testing.T, entries ...jobLogEntry) (*httptest.Server, string) {
	t.Helper()
	dir := t.TempDir()
	lg, _, err := openJobLog(filepath.Join(dir, "jobs.jsonl"), nil)
	if err != nil {
		t.Fatalf("job log: %v", err)
	}
	for _, e := range entries {
		if err := lg.append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := lg.close(); err != nil {
		t.Fatalf("close job log: %v", err)
	}
	var mu sync.Mutex
	var logged strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&logged, format+"\n", args...)
	}
	_, ts := newTestServer(t, Options{DataDir: dir, Workers: 1, Logf: logf})
	mu.Lock()
	defer mu.Unlock()
	return ts, logged.String()
}

func TestReplayReRunsDoneJobWithMissingCacheFile(t *testing.T) {
	spec := testSpec(9)
	spec.normalize()
	task, err := spec.buildTask(nil)
	if err != nil {
		t.Fatalf("buildTask: %v", err)
	}
	id := jobID(task, spec.Replicas)

	// A terminal "done" record whose cache file never made it to disk.
	dir := t.TempDir()
	lg, _, err := openJobLog(filepath.Join(dir, "jobs.jsonl"), nil)
	if err != nil {
		t.Fatalf("job log: %v", err)
	}
	for _, e := range []jobLogEntry{
		{Ev: "submit", ID: id, Spec: &spec},
		{Ev: "end", ID: id, State: "done"},
	} {
		if err := lg.append(e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := lg.close(); err != nil {
		t.Fatalf("close job log: %v", err)
	}

	_, ts := newTestServer(t, Options{DataDir: dir, Workers: 1})
	if st := waitTerminal(t, ts, id); st.State != "done" {
		t.Fatalf("re-run ended %q, want done", st.State)
	}
	if payload := getResult(t, ts, id); len(payload) == 0 {
		t.Fatal("empty re-run result")
	}
	if _, err := os.Stat(filepath.Join(dir, "cache", id+".json")); err != nil {
		t.Fatalf("re-run did not republish the cache file: %v", err)
	}
}

// TestSecondServerLeavesLiveDataDirIntact: a second daemon on a live data
// directory fails before it reads or cuts a byte of the live intent log,
// an in-flight append included, and a New that fails after opening the
// job log releases it.
func TestSecondServerLeavesLiveDataDirIntact(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Options{DataDir: dir, Workers: 1})
	code, _, js := submitJSON(t, ts, testSpec(3), "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	if st := waitTerminal(t, ts, js.ID); st.State != "done" {
		t.Fatalf("job ended %q", st.State)
	}
	// The live daemon's next append, caught mid-write.
	jobs := filepath.Join(dir, "jobs.jsonl")
	f, err := os.OpenFile(jobs, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"submit","id":"ff`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := New(Options{DataDir: dir}); err == nil {
		s2.Close()
		t.Fatal("a second server opened a live data directory")
	}
	if after, err := os.ReadFile(jobs); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the failed second server changed jobs.jsonl:\nbefore %q\nafter  %q (%v)", before, after, err)
	}

	// With the daemon gone and only the journal held, New opens the job
	// log, fails on the journal, and must release the job log.
	ts.Close()
	srv.Close()
	j, err := sim.OpenJournal(filepath.Join(dir, "replicas.jsonl"), true)
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := New(Options{DataDir: dir}); err == nil {
		s2.Close()
		t.Fatal("New opened a data directory whose journal is locked")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := New(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("New after a failed New: %v", err)
	}
	s3.Close()
}

func TestLookupServesEvictedResultFromDiskCache(t *testing.T) {
	// MaxDone: 1 forces the first finished job's metadata out of memory as
	// soon as the second finishes; its result must survive on disk.
	_, ts := newTestServer(t, Options{DataDir: t.TempDir(), Workers: 1, MaxDone: 1})

	_, _, first := submitJSON(t, ts, testSpec(1), "")
	if st := waitTerminal(t, ts, first.ID); st.State != "done" {
		t.Fatalf("first job: %q", st.State)
	}
	firstPayload := getResult(t, ts, first.ID)

	_, _, second := submitJSON(t, ts, testSpec(2), "")
	if st := waitTerminal(t, ts, second.ID); st.State != "done" {
		t.Fatalf("second job: %q", st.State)
	}

	// The first job was evicted from the in-memory table, but status and
	// result still answer from the content-addressed cache.
	code, js := getStatus(t, ts, first.ID)
	if code != http.StatusOK || js.State != "done" {
		t.Fatalf("evicted status: code %d state %q", code, js.State)
	}
	if got := getResult(t, ts, first.ID); !bytes.Equal(got, firstPayload) {
		t.Fatal("evicted result changed")
	}
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	mt := metricsText(t, ts)
	for _, want := range []string{
		"bitspreadd_jobs_submitted_total",
		"bitspreadd_queue_depth",
		"bitspread_rounds_total",
	} {
		if !strings.Contains(mt, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("get %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: code %d, want 404", path, resp.StatusCode)
		}
	}
}
