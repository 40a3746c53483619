package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/experiments"
	"bitspread/internal/fabric"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

// sizes sets how much work one operation of each workload does. The
// benchmark runs fullSizes; the tests run tinySizes. Sweeps always run the
// experiments' quick sizes.
type sizes struct {
	exps       []string // experiments of one sweep (sweep and fabric)
	partitions int      // fabric partitions per sweep

	agentsN, agentsRounds   int64 // phase A: batched agent-level replicas
	agentsReplicas          int
	shardedN, shardedRounds int64 // phase B: one sharded agent run

	jobN        int64 // service job population
	jobReplicas int
	warmupJobs  int // untimed jobs in a service set-up
	repeatSpecs int // distinct jobs service-repeat resubmits

	// golden is the digest the merged sweep journal must have at
	// goldenSeed ("" skips the check).
	golden string
}

var fullSizes = sizes{
	exps: []string{"T1", "T2", "T3", "F1"}, partitions: 4,
	agentsN: 1 << 20, agentsRounds: 4, agentsReplicas: 4,
	shardedN: 1 << 24, shardedRounds: 2,
	jobN: 4096, jobReplicas: 4, warmupJobs: 16, repeatSpecs: 64,
	golden: goldenDigest,
}

// goldenDigest is the SHA-256 of the merged journal of the full-size sweep
// at goldenSeed. Count-engine output is byte-stable across revisions, so it
// changes only when a change alters simulated trajectories.
const (
	goldenSeed   = 2024
	goldenDigest = "ad3af4017648f51936b01956f2880080e0c3a231fa54376a528258dcf571aa97"
)

// warmupOp offsets the operation index of set-up work, so warm-up inputs
// never coincide with timed ones.
const warmupOp = 1 << 30

// session is one set-up instance of a workload.
type session interface {
	// op runs operation k (a run-unique index) and checks its output. A
	// non-nil tr traces it: the op records a root span and its layers.
	op(ctx context.Context, k int, tr *tracer) error
	// verify runs the checks that need the whole run.
	verify(ctx context.Context) error
	close()
}

// workload is one input set the benchmark runs; BENCHMARK.json records
// why each was chosen.
type workload struct {
	name string
	// clients is the number of closed-loop callers (0: NumCPU).
	clients int
	// open sets the workload up in dir; tr receives server-side spans of
	// traced operations.
	open func(ctx context.Context, dir string, seed uint64, sz sizes, tr *tracer) (session, error)
}

var workloads = []workload{
	{name: "sweep", clients: 1, open: openSweep},
	{name: "fabric", clients: 1, open: openFabric},
	{name: "agents", clients: 1, open: openAgents},
	{name: "service-fresh", open: openServiceFresh},
	{name: "service-repeat", open: openServiceRepeat},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opSeed derives operation k's input seed; operation 0 uses the run seed
// itself, so the golden check applies to it.
func opSeed(base uint64, k int) uint64 {
	if k == 0 {
		return base
	}
	z := base + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digest is the hex SHA-256 of b.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkDigest compares one merged journal against another path's.
func checkDigest(what string, got []byte, want string) error {
	if d := digest(got); d != want {
		return fmt.Errorf("%s: merged journal digest %s, want %s", what, d, want)
	}
	return nil
}

// --- sweep ---

type sweepSession struct {
	dir  string
	seed uint64
	sz   sizes
	// merged is operation 0's merged journal.
	merged []byte
}

func openSweep(ctx context.Context, dir string, seed uint64, sz sizes, _ *tracer) (session, error) {
	s := &sweepSession{dir: dir, seed: seed, sz: sz}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := s.sweep(ctx, opSeed(seed, warmupOp), nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *sweepSession) op(ctx context.Context, k int, tr *tracer) error {
	root := tr.begin("op", 0)
	merged, err := s.sweep(ctx, opSeed(s.seed, k), tr, root.id)
	root.end()
	if err != nil {
		return err
	}
	if k == 0 {
		s.merged = merged
	}
	return nil
}

// sweep runs the experiments in one process with an unsynced journal, the
// bitsweep -journal path, and returns the merged journal.
func (s *sweepSession) sweep(ctx context.Context, seed uint64, tr *tracer, parent int64) ([]byte, error) {
	path := filepath.Join(s.dir, "sweep.jsonl")
	sp := tr.begin("sim.OpenJournalOpts", parent)
	j, err := sim.OpenJournalOpts(path, sim.JournalOptions{})
	sp.end()
	if err != nil {
		return nil, err
	}
	exps, err := fabric.SweepSpec{Exps: s.sz.exps}.Experiments()
	if err != nil {
		j.Close()
		return nil, err
	}
	opts := experiments.Options{Seed: seed, Workers: runtime.NumCPU(), Quick: true, Ctx: ctx, Journal: j}
	for _, e := range exps {
		sp := tr.begin("experiments."+e.ID, parent)
		if tr != nil {
			opts.Probe = tr
			opts.Observer = newSimObserver(tr, sp.id)
		}
		_, err := e.Run(opts)
		sp.end()
		if err != nil {
			j.Close()
			return nil, fmt.Errorf("sweep %s: %w", e.ID, err)
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	sp = tr.begin("sim.MergeJournals", parent)
	defer sp.end()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return mergeJournals(sim.MergeSource{Name: path, Data: data})
}

func mergeJournals(srcs ...sim.MergeSource) ([]byte, error) {
	var buf bytes.Buffer
	st, err := sim.MergeJournals(&buf, srcs)
	if err != nil {
		return nil, err
	}
	if st.Entries == 0 {
		return nil, errors.New("merged journal is empty")
	}
	return buf.Bytes(), nil
}

// verify recomputes operation 0 as fabric partitions, in process, and
// requires the same merged bytes; for the golden seed they must also match
// the pinned digest.
func (s *sweepSession) verify(ctx context.Context) error {
	if s.merged == nil {
		return errors.New("sweep: operation 0 did not finish")
	}
	spec := fabric.SweepSpec{Exps: s.sz.exps, Seed: s.seed, Quick: true, SimWorkers: runtime.NumCPU()}
	var srcs []sim.MergeSource
	for i := 0; i < s.sz.partitions; i++ {
		path := filepath.Join(s.dir, fmt.Sprintf("verify-%d.jsonl", i))
		if _, err := fabric.RunShard(ctx, spec, fabric.Shard{Index: i, Count: s.sz.partitions}, path, false, nil); err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs = append(srcs, sim.MergeSource{Name: path, Data: data})
	}
	ref, err := mergeJournals(srcs...)
	if err != nil {
		return err
	}
	return checkGolden("sweep", s.merged, digest(ref), s.seed, s.sz)
}

// checkGolden compares a merged journal with the other path's digest and,
// for the full-size golden seed, with the pinned digest.
func checkGolden(what string, merged []byte, want string, seed uint64, sz sizes) error {
	if err := checkDigest(what, merged, want); err != nil {
		return err
	}
	if seed == goldenSeed && sz.golden != "" {
		return checkDigest(what+" (golden)", merged, sz.golden)
	}
	return nil
}

func (s *sweepSession) close() {}

// --- fabric ---

// leaseTTL keeps a worker that is told to wait (TTL/4) from idling long.
const leaseTTL = 2 * time.Second

type fabricSession struct {
	dir    string
	seed   uint64
	sz     sizes
	merged []byte
}

func openFabric(ctx context.Context, dir string, seed uint64, sz sizes, _ *tracer) (session, error) {
	s := &fabricSession{dir: dir, seed: seed, sz: sz}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := s.cycle(ctx, opSeed(seed, warmupOp), nil, 0); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *fabricSession) op(ctx context.Context, k int, tr *tracer) error {
	root := tr.begin("op", 0)
	merged, err := s.cycle(ctx, opSeed(s.seed, k), tr, root.id)
	root.end()
	if err != nil {
		return err
	}
	if k == 0 {
		s.merged = merged
	}
	return nil
}

// cycle runs one distributed sweep: an in-process coordinator, NumCPU pull
// workers leasing partitions over HTTP, and the merged journal fetched
// from the coordinator.
func (s *fabricSession) cycle(ctx context.Context, seed uint64, tr *tracer, parent int64) ([]byte, error) {
	dir, err := os.MkdirTemp(s.dir, "cycle-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Options{
		DataDir: filepath.Join(dir, "coordinator"),
		Fabric: &serve.FabricOptions{
			Exps: s.sz.exps, Seed: seed, Quick: true,
			Partitions: s.sz.partitions, LeaseTTL: leaseTTL, SimWorkers: 1,
		},
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(traceHandler(tr, srv.Handler()))
	defer ts.Close()
	workers := runtime.NumCPU()
	client := newClient(workers)
	defer client.CloseIdleConnections()

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.begin("serve.RunPullWorker", parent)
			defer sp.end()
			errs[i] = serve.RunPullWorker(withSpan(ctx, sp), serve.PullWorkerOptions{
				URL:      ts.URL,
				Name:     fmt.Sprintf("w%d", i),
				ShardDir: filepath.Join(dir, fmt.Sprintf("w%d", i)),
				Client:   client,
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	code, body, err := call(withSpan(ctx, spanRef{tr: tr, id: parent}), client, http.MethodGet, ts.URL+"/v1/fabric/journal", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("fabric journal: status %d: %s", code, bytes.TrimSpace(body))
	}
	return body, nil
}

// verify recomputes operation 0 as one process and requires the same
// merged bytes (and the golden digest for the golden seed).
func (s *fabricSession) verify(ctx context.Context) error {
	if s.merged == nil {
		return errors.New("fabric: operation 0 did not finish")
	}
	ref := &sweepSession{dir: s.dir, sz: s.sz}
	merged, err := ref.sweep(ctx, s.seed, nil, 0)
	if err != nil {
		return err
	}
	return checkGolden("fabric", s.merged, digest(merged), s.seed, s.sz)
}

func (s *fabricSession) close() {}

// --- agents ---

type agentsSession struct {
	seed  uint64
	sz    sizes
	first []engine.Result // operation 0's phase A replicas
}

func openAgents(ctx context.Context, dir string, seed uint64, sz sizes, _ *tracer) (session, error) {
	s := &agentsSession{seed: seed, sz: sz}
	if err := s.op(ctx, warmupOp, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// trapConfig is Minority(3) started at n/2: the paper's trap, so every run
// hits its round cap and the work per operation is fixed.
func trapConfig(n, rounds int64) engine.Config {
	return engine.Config{N: n, Rule: protocol.Minority(3), Z: 1, X0: n / 2, MaxRounds: rounds}
}

func (s *agentsSession) op(ctx context.Context, k int, tr *tracer) error {
	seed := opSeed(s.seed, k)
	root := tr.begin("op", 0)
	defer root.end()

	a := tr.begin("sim.Run agent-level", root.id)
	task := sim.Task{Name: "agents", Config: trapConfig(s.sz.agentsN, s.sz.agentsRounds),
		Mode: sim.AgentLevel, Replicas: s.sz.agentsReplicas, Seed: seed}
	if tr != nil {
		task.Config.Probe = tr
		task.Observer = newSimObserver(tr, a.id)
	}
	out, err := sim.RunContext(ctx, task, runtime.NumCPU(), nil)
	a.end()
	if err != nil {
		return err
	}
	if out.States != nil {
		return fmt.Errorf("agents: replicas did not all complete: %v", out.States)
	}
	if err := checkTrap(out.Results, s.sz.agentsN, s.sz.agentsRounds); err != nil {
		return err
	}

	b := tr.begin("engine.RunAgents sharded", root.id)
	cfg := trapConfig(s.sz.shardedN, s.sz.shardedRounds)
	if tr != nil {
		cfg.Probe = tr
	}
	res, err := engine.RunAgents(cfg, engine.AgentOptions{Shards: runtime.NumCPU()}, rng.New(seed))
	b.end()
	if err != nil {
		return err
	}
	if err := checkTrap([]engine.Result{res}, s.sz.shardedN, s.sz.shardedRounds); err != nil {
		return err
	}
	if k == 0 {
		s.first = out.Results
	}
	return nil
}

// checkTrap requires every run to stop at exactly its round cap, not
// converged, with its one-count strictly inside (0, n).
func checkTrap(results []engine.Result, n, rounds int64) error {
	for i, r := range results {
		if r.Rounds != rounds || r.Converged || r.Interrupted || r.FinalCount <= 0 || r.FinalCount >= n {
			return fmt.Errorf("agents: run %d ended %+v, want %d rounds in the trap", i, r, rounds)
		}
	}
	return nil
}

// verify re-runs replica 0 of operation 0 alone: batched must equal solo.
func (s *agentsSession) verify(ctx context.Context) error {
	if s.first == nil {
		return errors.New("agents: operation 0 did not finish")
	}
	seed0 := rng.New(s.seed).Uint64() // sim derives replica seeds from the task seed
	solo, err := engine.RunAgents(trapConfig(s.sz.agentsN, s.sz.agentsRounds), engine.AgentOptions{}, rng.New(seed0))
	if err != nil {
		return err
	}
	return checkSolo(s.first[0], solo)
}

func checkSolo(batched, solo engine.Result) error {
	if batched != solo {
		return fmt.Errorf("agents: batched replica 0 %+v differs from the solo run %+v", batched, solo)
	}
	return nil
}

func (s *agentsSession) close() {}

// --- service ---

type serviceSession struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	seed   uint64
	sz     sizes

	// service-repeat: the finished jobs and a seeded picker.
	specs  [][]byte
	ids    []string
	bodies [][]byte
	mu     sync.Mutex
	pick   *rng.RNG
}

// openService starts bitspreadd's server with default options and its
// durable state in dir.
func openService(dir string, seed uint64, sz sizes, tr *tracer) (*serviceSession, error) {
	srv, err := serve.New(serve.Options{DataDir: dir})
	if err != nil {
		return nil, err
	}
	return &serviceSession{
		srv:    srv,
		ts:     httptest.NewServer(traceHandler(tr, srv.Handler())),
		client: newClient(runtime.NumCPU()),
		seed:   seed,
		sz:     sz,
	}, nil
}

func openServiceFresh(ctx context.Context, dir string, seed uint64, sz sizes, tr *tracer) (session, error) {
	s, err := openService(dir, seed, sz, tr)
	if err != nil {
		return nil, err
	}
	err = parallel(sz.warmupJobs, func(i int) error {
		return s.op(ctx, warmupOp+i, nil)
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func openServiceRepeat(ctx context.Context, dir string, seed uint64, sz sizes, tr *tracer) (session, error) {
	s, err := openService(dir, seed, sz, tr)
	if err != nil {
		return nil, err
	}
	s.pick = rng.New(seed)
	s.specs = make([][]byte, sz.repeatSpecs)
	s.ids = make([]string, sz.repeatSpecs)
	s.bodies = make([][]byte, sz.repeatSpecs)
	err = parallel(sz.repeatSpecs, func(i int) error {
		s.specs[i] = s.spec(opSeed(seed, i))
		id, body, err := s.job(ctx, s.specs[i])
		if err == nil {
			err = checkJobResult(id, body, sz.jobReplicas)
		}
		s.ids[i], s.bodies[i] = id, body
		return err
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// parallel runs f(0..n-1) on NumCPU goroutines.
func parallel(n int, f func(i int) error) error {
	jobs := make(chan int)
	errs := make([]error, runtime.NumCPU())
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				if err := f(i); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}

func (s *serviceSession) spec(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{"rule":"voter","n":%d,"replicas":%d,"mode":"parallel","seed":%d}`, s.sz.jobN, s.sz.jobReplicas, seed))
}

func (s *serviceSession) op(ctx context.Context, k int, tr *tracer) error {
	root := tr.begin("op", 0)
	defer root.end()
	ctx = withSpan(ctx, root)
	if s.pick == nil {
		id, body, err := s.job(ctx, s.spec(opSeed(s.seed, k)))
		if err != nil {
			return err
		}
		return checkJobResult(id, body, s.sz.jobReplicas)
	}
	s.mu.Lock()
	i := s.pick.Intn(len(s.specs))
	s.mu.Unlock()
	id, body, err := s.job(ctx, s.specs[i])
	if err != nil {
		return err
	}
	return checkRepeat(s.ids[i], id, s.bodies[i], body)
}

// job submits one spec, follows its event stream to job_done and reads the
// result: the round trip a bitspreadd client makes.
func (s *serviceSession) job(ctx context.Context, spec []byte) (id string, body []byte, err error) {
	code, raw, err := call(ctx, s.client, http.MethodPost, s.ts.URL+"/v1/jobs", spec)
	if err != nil {
		return "", nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return "", nil, fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(raw))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", nil, fmt.Errorf("submit: %w", err)
	}
	if err := s.awaitDone(ctx, st.ID); err != nil {
		return "", nil, err
	}
	code, body, err = call(ctx, s.client, http.MethodGet, s.ts.URL+"/v1/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return "", nil, err
	}
	if code != http.StatusOK {
		return "", nil, fmt.Errorf("result: status %d: %s", code, bytes.TrimSpace(body))
	}
	return st.ID, body, nil
}

// awaitDone reads the job's NDJSON event stream until its job_done line.
func (s *serviceSession) awaitDone(ctx context.Context, id string) error {
	ctx, sp := childSpan(ctx, "client events")
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	// A job streams thousands of round events; only the terminal line is
	// decoded, so the client's own work stays small beside the server's.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"job_done"`)) {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.Type == "job_done" {
			if ev.State != "done" {
				return fmt.Errorf("job %s ended %s", id, ev.State)
			}
			_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events: stream of job %s ended without job_done", id)
}

// checkJobResult requires a result with every replica completed.
func checkJobResult(id string, body []byte, replicas int) error {
	var res serve.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("job %s result: %w", id, err)
	}
	if res.ID != id || res.Replicas != replicas || len(res.Results) != replicas {
		return fmt.Errorf("job %s result has id %s, %d replicas and %d results, want %d", id, res.ID, res.Replicas, len(res.Results), replicas)
	}
	for i, r := range res.Results {
		if r.Interrupted || r.Rounds == 0 {
			return fmt.Errorf("job %s replica %d did not complete: %+v", id, i, r)
		}
	}
	return nil
}

// checkRepeat requires a resubmission to name the same job and return the
// same result bytes.
func checkRepeat(wantID, gotID string, want, got []byte) error {
	if gotID != wantID {
		return fmt.Errorf("resubmission answered job %s, want %s", gotID, wantID)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("resubmission of job %s returned a different result body", wantID)
	}
	return nil
}

func (s *serviceSession) verify(ctx context.Context) error { return nil }

func (s *serviceSession) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// call makes one request and reads the whole response body.
func call(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	ctx, sp := childSpan(ctx, "client "+method)
	defer sp.end()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
