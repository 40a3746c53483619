package main

// End-to-end robustness proofs against a real daemon process: the child
// test binary re-execs itself as bitspreadd (TestMain), the parent
// drives it over HTTP and kills it for real — SIGKILL mid-sweep for the
// crash/resume byte-identity proof, SIGTERM for the graceful-drain
// proof. The in-process variants of these properties live in
// internal/serve; these tests are the ones a supervisor (systemd, k8s)
// actually exercises.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bitspread/internal/experiments"
	"bitspread/internal/fabric"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

func TestMain(m *testing.M) {
	if os.Getenv("BITSPREADD_CHILD") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		code := 0
		if err := run(ctx, strings.Fields(os.Getenv("BITSPREADD_ARGS")), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bitspreadd:", err)
			code = 1
		}
		stop()
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// e2eSpec is a job whose replicas each run their full round cap (the
// anti-voter never stabilizes), giving the kill tests a wide window of
// mid-job state while staying seconds-scale overall. The cap is sized to
// the bitset engine, which decides 64 agents per handful of random words:
// 60000 rounds of 60 replicas at n = 2048 keep the job running for
// seconds.
func e2eSpec(replicas int) serve.JobSpec {
	x0 := int64(1024)
	return serve.JobSpec{
		Name:      "e2e",
		N:         2048,
		Z:         1,
		X0:        &x0,
		Rule:      "antivoter",
		Mode:      "agents",
		Replicas:  replicas,
		Seed:      11,
		MaxRounds: 60000,
	}
}

// daemon is one child bitspreadd process under test.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	url    string
	lines  chan string
	waited bool
}

// startDaemon re-execs the test binary as a bitspreadd child with the
// given flags and waits for its "listening on" line.
func startDaemon(t *testing.T, args string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BITSPREADD_CHILD=1", "BITSPREADD_ARGS="+args)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	addrCh := make(chan string, 1)
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "bitspreadd: listening on "); ok {
				addrCh <- a
				continue
			}
			select {
			case lines <- line:
			default:
			}
		}
	}()
	d := &daemon{t: t, cmd: cmd, lines: lines}
	t.Cleanup(d.kill)
	select {
	case a := <-addrCh:
		d.url = "http://" + a
		return d
	case <-time.After(60 * time.Second):
		t.Fatal("daemon never reported its listen address")
		return nil
	}
}

// kill force-stops the child if a test exits with it still running.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
	d.waited = true
}

// wait reaps the child and returns its exit error (nil for exit 0).
func (d *daemon) wait() error {
	err := d.cmd.Wait()
	d.waited = true
	return err
}

// submit posts a job spec and returns the HTTP code and decoded status.
func submit(t *testing.T, url string, spec serve.JobSpec) (int, serve.JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var js serve.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, js
}

// getStatus fetches one job's status; a transport error returns code 0.
func getStatus(url, id string) (int, serve.JobStatus) {
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return 0, serve.JobStatus{}
	}
	defer resp.Body.Close()
	var js serve.JobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, js
}

// waitDone polls until the job finishes, failing on a non-done end.
func waitDone(t *testing.T, url, id string) {
	t.Helper()
	for i := 0; i < 12000; i++ {
		if _, js := getStatus(url, id); js.State != "" {
			switch js.State {
			case "done":
				return
			case "failed", "cancelled":
				t.Fatalf("job %s ended %q (error %q)", id, js.State, js.Error)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

// getResult fetches the canonical result payload.
func getResult(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: code %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read result: %v", err)
	}
	return buf.Bytes()
}

// TestSIGKILLRestartResumesByteIdentical is the crash/resume acceptance
// proof: SIGKILL a daemon mid-sweep, restart it on the same data
// directory, and the merged journal-plus-recomputed result is
// byte-identical to an uninterrupted run in a fresh universe.
func TestSIGKILLRestartResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	spec := e2eSpec(60)
	dir := t.TempDir()
	args := "-addr 127.0.0.1:0 -workers 1 -data " + dir

	d1 := startDaemon(t, args)
	code, js := submit(t, d1.url, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	id := js.ID

	// Wait for real mid-job state — at least two replicas checkpointed —
	// then kill without ceremony.
	journal := filepath.Join(dir, "replicas.jsonl")
	checkpointed := false
	for i := 0; i < 30000; i++ {
		if b, err := os.ReadFile(journal); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			checkpointed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !checkpointed {
		t.Fatal("no replicas checkpointed before the kill window closed")
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = d1.wait() // non-zero exit expected: it was murdered

	// Restart on the same directory: the intent log re-enqueues the job,
	// the journal serves the finished replicas, and the job completes.
	d2 := startDaemon(t, args)
	waitDone(t, d2.url, id)
	resumed := getResult(t, d2.url, id)
	d2.kill()

	// Control: the same spec, uninterrupted, in a fresh data directory.
	d3 := startDaemon(t, "-addr 127.0.0.1:0 -workers 1 -data "+t.TempDir())
	code, js3 := submit(t, d3.url, spec)
	if code != http.StatusAccepted || js3.ID != id {
		t.Fatalf("control submit: code %d id %s (want %s — same spec, same address)", code, js3.ID, id)
	}
	waitDone(t, d3.url, id)
	control := getResult(t, d3.url, id)

	if !bytes.Equal(resumed, control) {
		t.Fatalf("SIGKILL+resume result differs from uninterrupted run:\nresumed: %.200s...\ncontrol: %.200s...", resumed, control)
	}
}

// TestSIGTERMDrainsAndExitsZero is the graceful-degradation proof: on
// SIGTERM the daemon finishes its in-flight job, rejects new work with
// 503, exits 0, and leaves the completed result durable on disk.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	spec := e2eSpec(60)
	dir := t.TempDir()
	args := "-addr 127.0.0.1:0 -workers 1 -drain-timeout 120s -data " + dir

	d := startDaemon(t, args)
	code, js := submit(t, d.url, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	id := js.ID
	for i := 0; ; i++ {
		if _, s := getStatus(d.url, id); s.State == "running" {
			break
		}
		if i >= 12000 {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	// Readiness flips while the in-flight job keeps running...
	for i := 0; ; i++ {
		resp, err := http.Get(d.url + "/readyz")
		if err == nil {
			rcode := resp.StatusCode
			resp.Body.Close()
			if rcode == http.StatusServiceUnavailable {
				break
			}
		}
		if i >= 2000 {
			t.Fatal("readyz never flipped to 503 after SIGTERM")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// ...and new submissions are shed with a retry hint.
	other := e2eSpec(60)
	other.Seed = 99
	if code, _ := submit(t, d.url, other); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: code %d, want 503", code)
	}

	if err := d.wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v, want clean exit 0", err)
	}
	var sawDraining bool
	for line := range d.lines {
		if strings.Contains(line, "draining") {
			sawDraining = true
		}
	}
	if !sawDraining {
		t.Error("daemon never announced the drain")
	}

	// The drained job finished and survived the process: a fresh daemon
	// serves its result straight from the on-disk state.
	d2 := startDaemon(t, args)
	scode, status := getStatus(d2.url, id)
	if scode != http.StatusOK || status.State != "done" {
		t.Fatalf("after restart: code %d state %q, want done", scode, status.State)
	}
	if payload := getResult(t, d2.url, id); len(payload) == 0 {
		t.Fatal("empty result after drain and restart")
	}
}

// TestBadFlags keeps the flag surface honest without a subprocess.
func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":            {"-definitely-not-a-flag"},
		"pull plus coordinator":   {"-pull", "http://127.0.0.1:1", "-fabric-exp", "T2"},
		"worker without pull":     {"-worker", "w1"},
		"shard-dir without pull":  {"-shard-dir", "/tmp/x"},
		"pull without worker":     {"-pull", "http://127.0.0.1:1", "-shard-dir", "/tmp/x"},
		"pull without shard dir":  {"-pull", "http://127.0.0.1:1", "-worker", "w1"},
		"coordinator unknown exp": {"-fabric-exp", "nope", "-addr", "127.0.0.1:0"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("%s: accepted %q", name, args)
		}
	}
}

// startWorker re-execs the test binary as a bitspreadd pull worker. No
// address to wait for: workers announce themselves with a "pulling
// from" line and exit on their own when the sweep drains.
func startWorker(t *testing.T, name, url, dir string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	args := fmt.Sprintf("-pull %s -worker %s -shard-dir %s", url, name, dir)
	cmd.Env = append(os.Environ(), "BITSPREADD_CHILD=1", "BITSPREADD_ARGS="+args)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start worker: %v", err)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	d := &daemon{t: t, cmd: cmd, lines: lines}
	t.Cleanup(d.kill)
	return d
}

// fabricReferenceBytes is the single-process, single-worker journal the
// coordinator's merged output must reproduce byte for byte.
func fabricReferenceBytes(t *testing.T, spec fabric.SweepSpec) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.jsonl")
	j, err := sim.OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := spec.Experiments()
	if err != nil {
		t.Fatal(err)
	}
	opts := experiments.Options{Seed: spec.Seed, Workers: 1, Quick: spec.Quick, Journal: j}
	for _, e := range exps {
		if _, err := e.Run(opts); err != nil {
			t.Fatalf("reference %s: %v", e.ID, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFabricWorkerSIGKILLReleaseByteIdentity is the distributed-sweep
// acceptance proof with real processes: a coordinator daemon leases
// partitions to a pull worker, the worker is SIGKILLed mid-lease, its
// expired lease is re-issued to a second worker, and the merged journal
// the coordinator finally serves is byte-identical to a single-process
// single-worker run.
func TestFabricWorkerSIGKILLReleaseByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e test")
	}
	const ttl = 2 * time.Second
	spec := fabric.SweepSpec{Exps: []string{"T2", "F1"}, Seed: 7, Quick: true, SimWorkers: 1}
	want := fabricReferenceBytes(t, spec)

	coord := startDaemon(t, "-addr 127.0.0.1:0 -fabric-exp T2,F1 -fabric-seed 7 -fabric-quick -fabric-partitions 2 -lease-ttl "+ttl.String())

	// Worker 1 leases a partition and starts checkpointing replicas;
	// once its shard has real mid-lease state, murder it.
	w1dir := t.TempDir()
	w1 := startWorker(t, "w1", coord.url, w1dir)
	killed := false
	for i := 0; i < 30000; i++ {
		matches, _ := filepath.Glob(filepath.Join(w1dir, "shard-*.jsonl"))
		var total int
		for _, m := range matches {
			if b, err := os.ReadFile(m); err == nil {
				total += bytes.Count(b, []byte("\n"))
			}
		}
		if total >= 2 {
			killed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !killed {
		t.Fatal("worker 1 never checkpointed replicas before the kill window closed")
	}
	if err := w1.cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL worker 1: %v", err)
	}
	_ = w1.wait() // non-zero exit expected: it was murdered

	// Let the dead worker's lease expire so the survivor triggers a
	// re-issue (not just a steal).
	time.Sleep(ttl + ttl/2)

	// Worker 2, fresh shard directory: it must pick up the orphaned
	// partition and drain the whole sweep, then exit 0 on its own.
	w2 := startWorker(t, "w2", coord.url, t.TempDir())
	if err := w2.wait(); err != nil {
		t.Fatalf("worker 2 exit: %v, want clean exit 0", err)
	}
	var sawDone bool
	for line := range w2.lines {
		if strings.Contains(line, "worker w2 done") {
			sawDone = true
		}
	}
	if !sawDone {
		t.Error("worker 2 never announced the drained sweep")
	}

	// The board records the recovery...
	resp, err := http.Get(coord.url + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.FabricStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if !st.Drained {
		t.Fatalf("status %+v, want drained", st)
	}
	if st.Board.Reissues < 1 {
		t.Errorf("board reissues = %d, want >= 1 (the SIGKILLed lease must have been re-issued)", st.Board.Reissues)
	}

	// ...and the merged journal is the single-process reference, byte
	// for byte, despite the crash and the re-lease.
	resp, err = http.Get(coord.url + "/v1/fabric/journal")
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("journal: code %d err %v", resp.StatusCode, rerr)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged journal after SIGKILL + re-lease is not byte-identical to the single-process reference")
	}
}
