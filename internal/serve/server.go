// Package serve is the simulation service layer behind cmd/bitspreadd: a
// stdlib-net/http JSON API that accepts bit-dissemination jobs, runs them
// on a bounded worker pool, and streams round events to clients.
//
// The package holds the serving layer to the same standard the paper
// holds its protocols — self-stabilizing under adversarial disruption:
//
//   - Admission control, never unbounded memory: per-tenant token-bucket
//     quotas (429 + Retry-After) and queue-depth limits (503 +
//     Retry-After) shed overload at the door; a job's replicas and an
//     agents job's population are bounded at admission (400); event
//     streams drop to slow consumers instead of buffering without bound.
//   - Crash safety: every accepted job is fsynced to a JSONL intent log
//     before the client sees 202, every finished replica is checkpointed
//     through sim.Journal, and completed results are published atomically
//     to a content-addressed cache — so a SIGKILL'd daemon restarts,
//     re-runs exactly the incomplete jobs, and (by the engines'
//     determinism contract) lands on byte-identical results.
//   - Graceful degradation: SIGTERM drains — in-flight jobs finish under
//     a deadline while new submissions get 503 — a panicking job is
//     isolated and reported without taking the daemon down, and per-job
//     timeouts bound every run.
//
// Nothing here touches simulation semantics: serve composes sim.Task,
// sim.RunContext, sim.Journal, engine.Probe and internal/obs; the
// deterministic core stays a pure function of (seed, Config, Shards).
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bitspread/internal/durable"
	"bitspread/internal/engine"
	"bitspread/internal/obs"
	"bitspread/internal/sim"
)

// Options configures a Server. The zero value is a usable memory-only
// test server (no crash safety, no quotas).
type Options struct {
	// DataDir is the durable state root: jobs.jsonl (intent log),
	// replicas.jsonl (sim journal) and cache/ (content-addressed results).
	// Empty runs memory-only: no journal, no cache, no crash recovery.
	DataDir string
	// Workers is the job worker pool size (default 2). Each worker runs
	// one job at a time.
	Workers int
	// SimWorkers is the per-job replica parallelism handed to
	// sim.RunContext (default 1: the pool parallelizes across jobs, not
	// within them).
	SimWorkers int
	// QueueDepth bounds the jobs waiting for a worker (default 64). A
	// full queue rejects with 503 + Retry-After.
	QueueDepth int
	// TenantRate is the per-tenant token refill rate in jobs/second
	// (default 0: quotas disabled). An empty bucket rejects with 429 +
	// Retry-After.
	TenantRate float64
	// TenantBurst is the per-tenant bucket capacity (default 8).
	TenantBurst int
	// JobTimeout caps each job's wall-clock budget (default 10m); specs
	// may request less, never more.
	JobTimeout time.Duration
	// MaxDone bounds the finished-job metadata kept in memory (default
	// 4096); older results remain served from the disk cache.
	MaxDone int
	// Registry receives service and engine metrics (nil: a fresh one).
	Registry *obs.Registry
	// Fabric, if non-nil, additionally runs the daemon as a distributed
	// sweep coordinator: /v1/lease hands shard leases of the configured
	// sweep to pulling workers, completed shard bytes persist under
	// DataDir/fabric/, and /v1/fabric/journal serves the canonical merge.
	Fabric *FabricOptions
	// Logf receives operational diagnostics (nil: discarded).
	Logf func(format string, args ...any)

	// now overrides the admission clock in tests.
	now func() time.Time
	// testHook, if set, runs on the worker goroutine right after a job
	// enters the running state; tests use it to hold workers at a barrier
	// or to panic inside a job.
	testHook func(jb *job)
}

// withDefaults resolves unset options.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.SimWorkers <= 0 {
		o.SimWorkers = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 8
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.MaxDone <= 0 {
		o.MaxDone = 4096
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// serverMetrics are the service-level counters and gauges, registered
// once at startup so the handlers touch only atomic hot paths.
type serverMetrics struct {
	submitted, deduped, cacheHits               *obs.Counter
	rejectedQuota, rejectedQueue, rejectedDrain *obs.Counter
	jobsDone, jobsFailed, jobsCancelled         *obs.Counter
	panics, eventsDropped                       *obs.Counter
	queueDepth, running                         *obs.Gauge
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		submitted:     reg.Counter("bitspreadd_jobs_submitted_total"),
		deduped:       reg.Counter("bitspreadd_jobs_deduped_total"),
		cacheHits:     reg.Counter("bitspreadd_cache_hits_total"),
		rejectedQuota: reg.Counter("bitspreadd_rejected_quota_total"),
		rejectedQueue: reg.Counter("bitspreadd_rejected_queue_total"),
		rejectedDrain: reg.Counter("bitspreadd_rejected_drain_total"),
		jobsDone:      reg.Counter("bitspreadd_jobs_done_total"),
		jobsFailed:    reg.Counter("bitspreadd_jobs_failed_total"),
		jobsCancelled: reg.Counter("bitspreadd_jobs_cancelled_total"),
		panics:        reg.Counter("bitspreadd_job_panics_total"),
		eventsDropped: reg.Counter("bitspreadd_events_dropped_total"),
		queueDepth:    reg.Gauge("bitspreadd_queue_depth"),
		running:       reg.Gauge("bitspreadd_jobs_running"),
	}
}

// Server is the simulation service: admission control in front of a
// bounded worker pool, with durable state under DataDir.
type Server struct {
	opts Options
	m    serverMetrics
	// probe holds the server-wide engine metrics /metrics exposes; jobs
	// reach it only through Fold.
	probe *obs.Metrics
	// jobMetrics holds one private engine probe per worker: the job a
	// worker runs writes its rounds there, memory no other job touches,
	// and Fold moves them into probe when the job ends and on every
	// /metrics scrape.
	jobMetrics []*obs.Metrics
	runObs     *obs.RunObserver
	adm        *admission

	journal *sim.Journal
	log     *durable.Log // the intent log; nil when memory-only
	cache   *resultCache
	fabric  *fabricState
	protos  *protoRegistry

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue    chan *job
	jobsWG   sync.WaitGroup
	workerWG sync.WaitGroup
	running  atomic.Int64

	mu        sync.Mutex
	jobs      map[string]*job
	seq       uint64
	doneOrder []string
	draining  bool
	closed    bool
	// drainStarted is closed by the first BeginDrain; a lease request
	// held on a wait answer ends when it closes.
	drainStarted chan struct{}
}

// New builds the server, replays durable state from opts.DataDir —
// re-enqueueing every accepted job that has no terminal record — and
// starts the worker pool.
func New(opts Options) (*Server, error) {
	return newServer(opts, durable.OS{})
}

// newServer is New writing every durable byte through fsys; the
// crash-point tests pass a fault-injecting FS.
func newServer(opts Options, fsys durable.FS) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		m:      newServerMetrics(opts.Registry),
		probe:  obs.NewMetrics(opts.Registry),
		runObs: obs.NewRunObserver(nil, opts.Registry),
		adm:    newAdmission(opts.TenantRate, opts.TenantBurst, opts.now),
		jobs:   map[string]*job{},

		drainStarted: make(chan struct{}),
	}

	// The protocol registry loads before the job log replays: a recovered
	// job may reference "vm:<id>" bytecode from a previous daemon life.
	var err error
	s.protos, err = openProtoRegistry(fsys, opts.DataDir, opts.Logf)
	if err != nil {
		return nil, err
	}
	if opts.Fabric != nil {
		s.fabric, err = newFabricState(*opts.Fabric, opts.DataDir, fsys, opts.now, opts.Logf)
		if err != nil {
			return nil, err
		}
	}
	// Once every subdirectory exists, the data directory is synced, so
	// each survives power loss whichever start created it (the fabric's
	// may first appear on a later start). The logs lock before they read
	// or cut a byte, so a second daemon on a live directory fails here
	// without touching it.
	var replayed []jobLogEntry
	if opts.DataDir != "" {
		s.cache, err = newResultCache(fsys, filepath.Join(opts.DataDir, "cache"))
		if err != nil {
			return nil, err
		}
		if err := fsys.SyncDir(opts.DataDir); err != nil {
			return nil, fmt.Errorf("serve: sync data directory: %w", err)
		}
		s.log, replayed, err = openJobLogFS(fsys, filepath.Join(opts.DataDir, "jobs.jsonl"), opts.Logf)
		if err != nil {
			return nil, err
		}
		s.journal, err = sim.OpenJournalFS(fsys, filepath.Join(opts.DataDir, "replicas.jsonl"), sim.JournalOptions{
			Resume: true,
			Fsync:  true,
			Logf:   opts.Logf,
		})
		if err != nil {
			s.log.Close() //bitlint:errsink error-path cleanup; the journal error is the one the caller needs and the job log wrote nothing
			return nil, err
		}
	}

	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	pending := s.replay(replayed)
	s.queue = make(chan *job, opts.QueueDepth+len(pending))
	for _, jb := range pending {
		s.jobsWG.Add(1)
		s.queue <- jb
	}
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.jobMetrics = make([]*obs.Metrics, opts.Workers)
	for i := range s.jobMetrics {
		s.jobMetrics[i] = obs.NewMetrics(obs.NewRegistry())
		s.workerWG.Add(1)
		go s.worker(s.jobMetrics[i])
	}
	return s, nil
}

// replay rebuilds the job table from intent-log entries and returns the
// accepted-but-unfinished jobs in submission order — the SIGKILL recovery
// set. A job whose terminal record says done but whose cached result has
// vanished is treated as unfinished too: the journal makes recomputing it
// cheap and determinism makes the redo identical.
func (s *Server) replay(entries []jobLogEntry) []*job {
	var pending []*job
	for _, e := range entries {
		switch e.Ev {
		case "submit":
			if e.Spec == nil || s.jobs[e.ID] != nil {
				continue
			}
			spec := *e.Spec
			spec.normalize()
			task, err := spec.buildTask(s.vmRule)
			if err != nil {
				s.opts.Logf("serve: replay %s: unbuildable spec dropped: %v", e.ID, err)
				continue
			}
			timeout, err := spec.timeoutOrDefault(s.opts.JobTimeout)
			if err != nil {
				timeout = s.opts.JobTimeout
			}
			jb := &job{id: e.ID, spec: spec, task: task, timeout: timeout, seq: s.seq, hub: newHub(s.m.eventsDropped)}
			s.seq++
			s.jobs[e.ID] = jb
			pending = append(pending, jb)
		case "end":
			jb := s.jobs[e.ID]
			if jb == nil {
				continue
			}
			st := stateDone
			switch e.State {
			case "failed":
				st = stateFailed
			case "cancelled":
				st = stateCancelled
			}
			if st == stateDone {
				if _, ok := s.cache.get(e.ID); !ok {
					// Terminal record without a result — a crash between the
					// cache publish and nothing, or an evicted file. Re-run.
					continue
				}
			}
			jb.mu.Lock()
			jb.state = st
			jb.err = e.Error
			jb.mu.Unlock()
			jb.hub.close(Event{Type: "job_done", State: st.String()})
			s.doneOrder = append(s.doneOrder, e.ID)
			for i, p := range pending {
				if p == jb {
					pending = append(pending[:i], pending[i+1:]...)
					break
				}
			}
		}
	}
	s.evictDoneLocked()
	return pending
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/protocols", s.handleProtocolSubmit)
	mux.HandleFunc("GET /v1/protocols", s.handleProtocolList)
	mux.HandleFunc("GET /v1/protocols/{id}", s.handleProtocolGet)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/lease/{id}/renew", s.handleLeaseRenew)
	mux.HandleFunc("POST /v1/lease/{id}/complete", s.handleLeaseComplete)
	mux.HandleFunc("GET /v1/fabric/status", s.handleFabricStatus)
	mux.HandleFunc("GET /v1/fabric/journal", s.handleFabricJournal)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// BeginDrain flips the server into draining mode: readyz turns 503,
// new submissions are rejected and held lease requests end with 503,
// while status, result and event endpoints keep serving.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainStarted)
	}
	s.mu.Unlock()
}

// Drain gracefully shuts the pool down: no new jobs are admitted, every
// already-accepted job (queued or running) is given until ctx ends to
// finish, and then the pool stops. It returns nil when all accepted work
// completed, or ctx's error when the deadline forced in-flight jobs to be
// interrupted — in which case they carry no terminal record and a
// restarted daemon resumes them from the journal.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.shutdownPool()
	return drainErr
}

// Close hard-stops the server: in-flight jobs are cancelled at the next
// round boundary (checkpointed, resumable) and the pool exits.
func (s *Server) Close() {
	s.BeginDrain()
	s.baseCancel()
	s.jobsWG.Wait()
	s.shutdownPool()
}

// shutdownPool closes the queue, waits the workers out, and releases the
// durable state. Idempotent.
func (s *Server) shutdownPool() {
	s.mu.Lock()
	already := s.closed
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	if already {
		return
	}
	s.workerWG.Wait()
	s.baseCancel()
	if err := s.journal.Close(); err != nil {
		s.opts.Logf("serve: closing journal: %v", err)
	}
	if err := s.log.Close(); err != nil {
		s.opts.Logf("serve: closing job log: %v", err)
	}
}

// worker drains the job queue until it closes, running each job's
// rounds against its private engine metrics m.
func (s *Server) worker(m *obs.Metrics) {
	defer s.workerWG.Done()
	for jb := range s.queue {
		s.m.queueDepth.Set(int64(len(s.queue)))
		s.runJob(jb, m)
	}
}

// runJob executes one job with panic isolation: a panicking worker fails
// only its job, never the daemon.
func (s *Server) runJob(jb *job, m *obs.Metrics) {
	defer s.jobsWG.Done()
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Inc()
			s.finishJob(jb, stateFailed, fmt.Sprintf("job panicked: %v", r), nil)
		}
	}()

	jb.mu.Lock()
	if jb.cancelPending {
		jb.mu.Unlock()
		s.finishJob(jb, stateCancelled, "cancelled before start", nil)
		return
	}
	jb.state = stateRunning
	jb.mu.Unlock()
	s.m.running.Set(s.running.Add(1))
	defer func() { s.m.running.Set(s.running.Add(-1)) }()
	if s.opts.testHook != nil {
		s.opts.testHook(jb)
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, jb.timeout)
	defer cancel()
	jb.mu.Lock()
	jb.cancel = cancel
	cancelled := jb.cancelPending
	jb.mu.Unlock()
	if cancelled {
		cancel()
	}

	task := jb.task
	task.Config.Probe = engine.Probes(m, jb.hub)
	task.Observer = observerFan{s.runObs, jb.hub}
	out, err := sim.RunContext(ctx, task, s.opts.SimWorkers, s.journal)
	s.probe.Fold(m)
	completed, failed, cancelledN, timedOut := out.Counts()
	jb.mu.Lock()
	jb.counts = [4]int{completed, failed, cancelledN, timedOut}
	clientCancel := jb.cancelPending
	jb.mu.Unlock()

	switch {
	case err == nil && completed == jb.task.Replicas:
		payload, perr := canonicalResult(jb.id, out)
		if perr != nil {
			s.finishJob(jb, stateFailed, perr.Error(), nil)
			return
		}
		if cerr := s.cache.put(jb.id, payload); cerr != nil {
			s.opts.Logf("serve: job %s: cache publish failed, serving from memory: %v", jb.id, cerr)
		}
		s.finishJob(jb, stateDone, "", payload)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		switch {
		case clientCancel:
			s.finishJob(jb, stateCancelled, "cancelled by client", nil)
		case s.baseCtx.Err() != nil:
			// Server shutdown, not a client action: leave no terminal
			// record so a restarted daemon resumes this job from the
			// journal instead of forgetting it.
			s.interruptJob(jb)
		default:
			s.finishJob(jb, stateFailed, fmt.Sprintf("job timed out after %s", jb.timeout), nil)
		}
	case err != nil:
		s.finishJob(jb, stateFailed, err.Error(), nil)
	default:
		msg := fmt.Sprintf("%d of %d replicas failed", failed, jb.task.Replicas)
		if len(out.Failures) > 0 {
			msg = fmt.Sprintf("%s (first: %v)", msg, out.Failures[0].Err)
		}
		s.finishJob(jb, stateFailed, msg, nil)
	}
}

// finishJob is the single terminal transition: job state, intent-log end
// record, metrics, stream close, and done-set eviction.
func (s *Server) finishJob(jb *job, st jobState, errMsg string, payload []byte) {
	jb.mu.Lock()
	if jb.state.terminal() {
		jb.mu.Unlock()
		return
	}
	jb.state = st
	jb.err = errMsg
	jb.cancel = nil
	if payload != nil && s.cache == nil {
		jb.payload = payload
	}
	jb.mu.Unlock()
	if err := s.log.Append(jobLogEntry{Ev: "end", ID: jb.id, State: st.String(), Error: errMsg}); err != nil {
		s.opts.Logf("serve: job %s: recording end state: %v", jb.id, err)
	}
	switch st {
	case stateDone:
		s.m.jobsDone.Inc()
	case stateCancelled:
		s.m.jobsCancelled.Inc()
	default:
		s.m.jobsFailed.Inc()
	}
	jb.hub.close(Event{Type: "job_done", State: st.String()})
	s.mu.Lock()
	s.doneOrder = append(s.doneOrder, jb.id)
	s.evictDoneLocked()
	s.mu.Unlock()
}

// interruptJob returns a shutdown-interrupted job to the queued state
// without a terminal record; only a restart will run it again.
func (s *Server) interruptJob(jb *job) {
	jb.mu.Lock()
	if !jb.state.terminal() {
		jb.state = stateQueued
		jb.cancel = nil
	}
	jb.mu.Unlock()
	jb.hub.close(Event{Type: "job_done", State: "interrupted"})
}

// evictDoneLocked bounds finished-job metadata at opts.MaxDone entries,
// dropping the oldest; their results stay served from the disk cache.
// Caller holds s.mu (or is still single-goroutine in New).
func (s *Server) evictDoneLocked() {
	for len(s.doneOrder) > s.opts.MaxDone {
		id := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		if jb := s.jobs[id]; jb != nil {
			st, _, _ := jb.snapshot()
			if st.terminal() {
				delete(s.jobs, id)
			}
		}
	}
}
