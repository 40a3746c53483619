package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bitspread/internal/durable"
	"bitspread/internal/experiments"
	"bitspread/internal/fabric"
	"bitspread/internal/sim"
)

// fakeClock is a hand-advanced time source for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func postLease(t testing.TB, ts *httptest.Server, worker string) (int, LeaseResponse) {
	t.Helper()
	body, _ := json.Marshal(LeaseRequest{Worker: worker})
	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr LeaseResponse
	_ = json.NewDecoder(resp.Body).Decode(&lr)
	return resp.StatusCode, lr
}

func postComplete(t testing.TB, ts *httptest.Server, leaseID string, shard []byte) (int, CompleteResponse, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/lease/"+leaseID+"/complete", "application/x-ndjson", bytes.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var cr CompleteResponse
	_ = json.Unmarshal(raw, &cr)
	return resp.StatusCode, cr, string(raw)
}

func runShardBytes(t testing.TB, spec fabric.SweepSpec, shard fabric.Shard) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shard.jsonl")
	if _, err := fabric.RunShard(context.Background(), spec, shard, path, false, t.Logf); err != nil {
		t.Fatalf("shard %v: %v", shard, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// referenceJournalBytes is the single-process single-worker journal the
// coordinator's merge must reproduce byte for byte.
func referenceJournalBytes(t testing.TB, spec fabric.SweepSpec) []byte {
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

func TestFabricEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v1/lease"},
		{"POST", "/v1/lease/p0.g1/renew"},
		{"POST", "/v1/lease/p0.g1/complete"},
		{"GET", "/v1/fabric/status"},
		{"GET", "/v1/fabric/journal"},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s without fabric: %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestFabricLeaseValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Fabric: &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true}})
	if code, _ := postLease(t, ts, ""); code != http.StatusBadRequest {
		t.Errorf("nameless worker: %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", resp.StatusCode)
	}
	if _, err := New(Options{Fabric: &FabricOptions{Exps: []string{"nope"}}}); err == nil {
		t.Error("unknown experiment in FabricOptions accepted")
	}
}

// The full coordinator happy path: two workers lease the two partitions,
// upload their shards, and the merged journal is byte-identical to the
// single-process reference.
func TestFabricCoordinatorByteIdentity(t *testing.T) {
	fopts := &FabricOptions{Exps: []string{"T2", "F1"}, Seed: 7, Quick: true, Partitions: 2}
	_, ts := newTestServer(t, Options{Fabric: fopts})

	want := referenceJournalBytes(t, fopts.spec())

	leases := map[int]string{}
	for _, worker := range []string{"w1", "w2"} {
		code, lr := postLease(t, ts, worker)
		if code != http.StatusOK || lr.Status != "lease" || lr.Spec == nil {
			t.Fatalf("%s lease: %d %+v", worker, code, lr)
		}
		if lr.Partitions != 2 {
			t.Fatalf("lease advertises %d partitions, want 2", lr.Partitions)
		}
		leases[lr.Partition] = lr.LeaseID
	}
	if len(leases) != 2 {
		t.Fatalf("workers got %d distinct partitions, want 2", len(leases))
	}

	// Journal is 409 while shards are outstanding.
	resp, err := http.Get(ts.URL + "/v1/fabric/journal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("journal before completion: %d, want 409", resp.StatusCode)
	}

	for part, leaseID := range leases {
		spec := fopts.spec()
		shard := runShardBytes(t, spec, fabric.Shard{Index: part, Count: 2})
		code, cr, raw := postComplete(t, ts, leaseID, shard)
		if code != http.StatusOK || cr.Duplicate || cr.Partition != part {
			t.Fatalf("complete %s: %d %+v %s", leaseID, code, cr, raw)
		}
	}

	// Status reports drained.
	resp, err = http.Get(ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	var st FabricStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if !st.Drained || st.Board.Done != 2 {
		t.Fatalf("status %+v, want drained with 2 done", st)
	}

	// A late worker is told the sweep is done.
	if _, lr := postLease(t, ts, "w3"); lr.Status != "done" {
		t.Fatalf("post-drain lease: %+v, want done", lr)
	}

	// The merged journal is the reference, byte for byte.
	resp, err = http.Get(ts.URL + "/v1/fabric/journal")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journal: %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("coordinator merge is not byte-identical to the single-process reference")
	}
}

// An expired lease is re-issued to a survivor; the zombie's renew gets
// 410; duplicate completions are verified and acknowledged.
func TestFabricLeaseExpiryAndDuplicate(t *testing.T) {
	clk := newFakeClock()
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 1, LeaseTTL: 10 * time.Second}
	_, ts := newTestServer(t, Options{Fabric: fopts, now: clk.now})

	_, dead := postLease(t, ts, "w1")
	if dead.Status != "lease" {
		t.Fatalf("first lease: %+v", dead)
	}

	// Renewal keeps it alive while the worker heartbeats.
	resp, err := http.Post(ts.URL+"/v1/lease/"+dead.LeaseID+"/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("renew live lease: %d", resp.StatusCode)
	}

	// Worker dies: no renewals past the TTL; survivor gets the re-issue.
	clk.advance(11 * time.Second)
	_, release := postLease(t, ts, "w2")
	if release.Status != "lease" || release.Partition != dead.Partition {
		t.Fatalf("re-issue: %+v", release)
	}
	resp, err = http.Post(ts.URL+"/v1/lease/"+dead.LeaseID+"/renew", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("zombie renew: %d, want 410", resp.StatusCode)
	}

	shard := runShardBytes(t, fopts.spec(), fabric.Shard{Index: 0, Count: 1})
	if code, cr, raw := postComplete(t, ts, release.LeaseID, shard); code != http.StatusOK || cr.Duplicate {
		t.Fatalf("survivor complete: %d %+v %s", code, cr, raw)
	}
	// The zombie resurfaces and uploads the same partition: acknowledged
	// as a verified duplicate, not an error.
	if code, cr, _ := postComplete(t, ts, dead.LeaseID, shard); code != http.StatusOK || !cr.Duplicate {
		t.Fatalf("zombie duplicate complete: %d %+v", code, cr)
	}
	// A conflicting duplicate (different bytes for the same task space) is
	// rejected.
	conflict := bytes.Replace(shard, []byte(`"Rounds":`), []byte(`"Rounds":9`), 1)
	if code, _, _ := postComplete(t, ts, dead.LeaseID, conflict); code != http.StatusConflict {
		t.Fatalf("conflicting duplicate: %d, want 409", code)
	}

	var st FabricStatus
	resp, err = http.Get(ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Board.Reissues != 1 {
		t.Fatalf("status %+v, want 1 reissue", st.Board)
	}
}

// A restarted coordinator pre-completes partitions whose shard bytes it
// already persisted, and still merges to the reference.
func TestFabricCoordinatorRestartKeepsShards(t *testing.T) {
	dir := t.TempDir()
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 2}

	srv, ts := newTestServer(t, Options{DataDir: dir, Fabric: fopts})
	_, l := postLease(t, ts, "w1")
	shard0 := runShardBytes(t, fopts.spec(), fabric.Shard{Index: l.Partition, Count: 2})
	if code, _, raw := postComplete(t, ts, l.LeaseID, shard0); code != http.StatusOK {
		t.Fatalf("complete: %d %s", code, raw)
	}
	done0 := l.Partition
	ts.Close()
	srv.Close()

	_, ts2 := newTestServer(t, Options{DataDir: dir, Fabric: fopts})
	var st FabricStatus
	resp, err := http.Get(ts2.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Board.Done != 1 {
		t.Fatalf("restarted board %+v, want 1 pre-completed partition", st.Board)
	}

	_, l2 := postLease(t, ts2, "w2")
	if l2.Status != "lease" || l2.Partition == done0 {
		t.Fatalf("post-restart lease %+v, want the other partition", l2)
	}
	shard1 := runShardBytes(t, fopts.spec(), fabric.Shard{Index: l2.Partition, Count: 2})
	if code, _, raw := postComplete(t, ts2, l2.LeaseID, shard1); code != http.StatusOK {
		t.Fatalf("complete after restart: %d %s", code, raw)
	}

	resp, err = http.Get(ts2.URL + "/v1/fabric/journal")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := referenceJournalBytes(t, fopts.spec()); !bytes.Equal(got, want) {
		t.Fatal("post-restart merge differs from reference")
	}
}

// failShardRename is the real filesystem except that its first rename onto
// a fabric shard fails, as when the disk fills mid-publish.
type failShardRename struct {
	durable.OS
	failed atomic.Bool
}

func (f *failShardRename) Rename(oldpath, newpath string) error {
	if strings.HasPrefix(filepath.Base(newpath), "shard-") && f.failed.CompareAndSwap(false, true) {
		return errors.New("injected rename failure")
	}
	return f.OS.Rename(oldpath, newpath)
}

// A 200 from the complete endpoint means the shard is durable: an upload
// whose publish fails answers 503 and leaves the partition leasable, and
// the re-issued lease's upload lands on disk.
func TestFabricCompleteUnpersistedIs503(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 1, LeaseTTL: 10 * time.Second}
	s, err := newServer(Options{DataDir: dir, Workers: 1, Fabric: fopts, now: clk.now}, &failShardRename{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lease := func(worker string) LeaseResponse {
		code, body := call(s, "POST", "/v1/lease", mustJSON(t, LeaseRequest{Worker: worker}))
		var lr LeaseResponse
		if err := json.Unmarshal(body, &lr); code != http.StatusOK || err != nil {
			t.Fatalf("lease: code %d: %v", code, err)
		}
		return lr
	}
	shard := runShardBytes(t, fopts.spec(), fabric.Shard{Index: 0, Count: 1})
	path := filepath.Join(dir, "fabric", "shard-0.jsonl")

	first := lease("w1")
	if code, body := call(s, "POST", "/v1/lease/"+first.LeaseID+"/complete", shard); code != http.StatusServiceUnavailable {
		t.Fatalf("upload whose publish fails: code %d %s, want 503", code, body)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("shard file after the failed publish: %v, want none", err)
	}
	clk.advance(11 * time.Second)
	again := lease("w2")
	if again.Status != "lease" || again.Partition != 0 || again.LeaseID == first.LeaseID {
		t.Fatalf("after the failed publish: %+v, want partition 0 re-issued", again)
	}
	if code, body := call(s, "POST", "/v1/lease/"+again.LeaseID+"/complete", shard); code != http.StatusOK {
		t.Fatalf("second upload: code %d %s, want 200", code, body)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, shard) {
		t.Fatalf("shard on disk after the 200: %d bytes, %v", len(got), err)
	}
}

// leaseWatch is an HTTP transport that reports the status of the first
// /v1/lease answer it carries.
type leaseWatch struct {
	once   sync.Once
	status chan string
}

func (l *leaseWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/v1/lease" {
		return resp, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	var lr LeaseResponse
	_ = json.Unmarshal(raw, &lr)
	l.once.Do(func() { l.status <- lr.Status })
	return resp, nil
}

// A worker told to wait while every live partition is leased and stolen
// paces itself with its own backoff, so it leaves soon after the sweep
// drains instead of sleeping out a fraction of the lease TTL.
func TestPullWorkerWaitEndsWithSweep(t *testing.T) {
	fopts := &FabricOptions{Exps: []string{"T2"}, Seed: 7, Quick: true, Partitions: 1}
	_, ts := newTestServer(t, Options{Fabric: fopts})
	_, a := postLease(t, ts, "a")
	_, b := postLease(t, ts, "b")
	if a.Status != "lease" || b.Status != "lease" || !b.Stolen {
		t.Fatalf("a %+v, b %+v: want a lease and its steal", a, b)
	}
	shard := runShardBytes(t, fopts.spec(), fabric.Shard{Index: 0, Count: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	watch := &leaseWatch{status: make(chan string, 1)}
	done := make(chan error, 1)
	go func() {
		done <- RunPullWorker(ctx, PullWorkerOptions{
			URL: ts.URL, Name: "c", ShardDir: t.TempDir(),
			Client: &http.Client{Transport: watch},
		})
	}()
	select {
	case st := <-watch.status:
		if st != "wait" {
			t.Fatalf("c's first lease answer: %q, want wait", st)
		}
	case err := <-done:
		t.Fatalf("c returned %v before its first lease answer", err)
	}
	if code, _, raw := postComplete(t, ts, a.LeaseID, shard); code != http.StatusOK {
		t.Fatalf("complete a: %d %s", code, raw)
	}
	if err := <-done; err != nil {
		t.Fatalf("c after the sweep drained: %v, want nil", err)
	}
}
