package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"

	"bitspread/internal/sim"
)

// observerFan tees sim run-level observer events to the run observer and
// the job's stream hub, as engine.Probes does for probe events.
type observerFan struct {
	a, b sim.Observer
}

func (f observerFan) ReplicaStart(task string, replica int) {
	f.a.ReplicaStart(task, replica)
	f.b.ReplicaStart(task, replica)
}
func (f observerFan) ReplicaDone(task string, replica int, rounds int64, converged bool, state string) {
	f.a.ReplicaDone(task, replica, rounds, converged, state)
	f.b.ReplicaDone(task, replica, rounds, converged, state)
}
func (f observerFan) Checkpoint(task string, replica int) {
	f.a.Checkpoint(task, replica)
	f.b.Checkpoint(task, replica)
}
func (f observerFan) Recovery(task string, replica int, rounds int64) {
	f.a.Recovery(task, replica, rounds)
	f.b.Recovery(task, replica, rounds)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a Retry-After header value, rounding up and
// clamping into [1, 3600]: sub-second waits must never truncate to 0 (a
// zero tells clients to hammer immediately), and NaN, negative, infinite
// or absurdly large inputs — conversion of which to int is otherwise
// platform-defined — degrade to a sane bound instead of garbage.
func retryAfterSeconds(seconds float64) string {
	const maxSeconds = 3600
	if math.IsNaN(seconds) || seconds < 0 {
		seconds = 0
	}
	if seconds > maxSeconds {
		seconds = maxSeconds
	}
	s := int(math.Ceil(seconds))
	if s < 1 {
		s = 1
	}
	return strconv.Itoa(s)
}

// statusOf snapshots a job into its wire status.
func (s *Server) statusOf(jb *job) JobStatus {
	st, errMsg, counts := jb.snapshot()
	js := JobStatus{
		ID:        jb.id,
		Name:      jb.spec.Name,
		State:     st.String(),
		Tenant:    jb.spec.Tenant,
		Replicas:  jb.spec.Replicas,
		Error:     errMsg,
		Completed: counts[0],
		Failed:    counts[1],
		Cancelled: counts[2],
		TimedOut:  counts[3],
	}
	if st == stateDone {
		js.ResultURL = "/v1/jobs/" + jb.id + "/result"
	}
	return js
}

// handleSubmit is POST /v1/jobs: decode, address, admit, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	if t := r.Header.Get("X-Tenant"); t != "" {
		spec.Tenant = t
	}
	spec.normalize()
	task, err := spec.buildTask(s.vmRule)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := spec.timeoutOrDefault(s.opts.JobTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := jobID(task, spec.Replicas)

	// Dedup before admission: a repeat of known work costs nothing, so it
	// is never worth a quota token or a queue slot.
	s.mu.Lock()
	if jb := s.jobs[id]; jb != nil {
		s.mu.Unlock()
		s.m.deduped.Inc()
		st, _, _ := jb.snapshot()
		code := http.StatusAccepted
		if st.terminal() {
			code = http.StatusOK
		}
		js := s.statusOf(jb)
		js.Cached = st == stateDone
		writeJSON(w, code, js)
		return
	}
	draining := s.draining || s.closed
	s.mu.Unlock()

	if _, ok := s.cache.get(id); ok {
		jb := s.registerCachedJob(id, spec, task)
		s.m.cacheHits.Inc()
		js := s.statusOf(jb)
		js.Cached = true
		writeJSON(w, http.StatusOK, js)
		return
	}

	if draining {
		w.Header().Set("Retry-After", retryAfterSeconds(60))
		s.m.rejectedDrain.Inc()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}

	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if ok, ra := s.adm.allow(tenant); !ok {
		w.Header().Set("Retry-After", retryAfterSeconds(ra.Seconds()))
		s.m.rejectedQuota.Inc()
		writeError(w, http.StatusTooManyRequests, "tenant %q over quota", tenant)
		return
	}

	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		w.Header().Set("Retry-After", retryAfterSeconds(60))
		s.m.rejectedDrain.Inc()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	if jb := s.jobs[id]; jb != nil {
		// Lost a race with an identical submission; serve its record.
		s.mu.Unlock()
		s.m.deduped.Inc()
		writeJSON(w, http.StatusAccepted, s.statusOf(jb))
		return
	}
	if len(s.queue) >= s.opts.QueueDepth {
		depth := len(s.queue)
		s.mu.Unlock()
		// Rough drain estimate: queued jobs over pool width, at least 1s.
		w.Header().Set("Retry-After", retryAfterSeconds(float64(depth)/float64(s.opts.Workers)))
		s.m.rejectedQueue.Inc()
		writeError(w, http.StatusServiceUnavailable, "queue full (%d jobs)", depth)
		return
	}
	jb := &job{id: id, spec: spec, task: task, timeout: timeout, seq: s.seq, hub: newHub(s.m.eventsDropped)}
	s.seq++
	s.jobs[id] = jb
	// The submit record is fsynced before the client sees 202: an
	// accepted job survives any kill from here on.
	if err := s.log.Append(jobLogEntry{Ev: "submit", ID: id, Spec: &spec}); err != nil {
		delete(s.jobs, id)
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "journaling job: %v", err)
		return
	}
	s.jobsWG.Add(1)
	s.queue <- jb // never blocks: sends are serialized under s.mu and len was checked
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.mu.Unlock()
	s.m.submitted.Inc()

	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, s.statusOf(jb))
}

// registerCachedJob files a synthetic done record for a result found in
// the cache from a previous daemon life.
func (s *Server) registerCachedJob(id string, spec JobSpec, task sim.Task) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if jb := s.jobs[id]; jb != nil {
		return jb
	}
	jb := &job{id: id, spec: spec, task: task, seq: s.seq, hub: newHub(s.m.eventsDropped), state: stateDone}
	s.seq++
	jb.hub.close(Event{Type: "job_done", State: stateDone.String()})
	s.jobs[id] = jb
	s.doneOrder = append(s.doneOrder, id)
	s.evictDoneLocked()
	return jb
}

// handleList is GET /v1/jobs: all known jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	//bitlint:maporder listing is sorted by submission sequence immediately below
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq < jobs[j].seq })
	out := make([]JobStatus, len(jobs))
	for i, jb := range jobs {
		out[i] = s.statusOf(jb)
	}
	//bitlint:taintdet map-order taint is laundered by the sort.Slice on submission sequence above; the payload is deterministic
	writeJSON(w, http.StatusOK, out)
}

// lookupJob finds a job by ID, resurrecting a minimal done record for
// results that live only in the disk cache (evicted or from a prior
// life).
func (s *Server) lookupJob(id string) *job {
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb != nil {
		return jb
	}
	if _, ok := s.cache.get(id); ok {
		jb := &job{id: id, state: stateDone, hub: newHub(s.m.eventsDropped)}
		jb.hub.close(Event{Type: "job_done", State: stateDone.String()})
		return jb
	}
	return nil
}

// handleStatus is GET /v1/jobs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookupJob(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(jb))
}

// handleCancel is DELETE /v1/jobs/{id}: request cancellation of a queued
// or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	jb := s.jobs[id]
	s.mu.Unlock()
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if !jb.requestCancel() {
		writeError(w, http.StatusConflict, "job %s already finished", id)
		return
	}
	writeJSON(w, http.StatusAccepted, s.statusOf(jb))
}

// handleResult is GET /v1/jobs/{id}/result: the canonical result payload
// of a completed job, byte-identical for a given job ID wherever and
// whenever it was computed.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb := s.lookupJob(id)
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st, errMsg, _ := jb.snapshot()
	switch st {
	case stateDone:
	case stateFailed:
		writeError(w, http.StatusConflict, "job failed: %s", errMsg)
		return
	case stateCancelled:
		writeError(w, http.StatusConflict, "job was cancelled")
		return
	default:
		writeError(w, http.StatusConflict, "job not finished (state %s)", st)
		return
	}
	if payload, ok := s.cache.get(id); ok {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(payload)
		return
	}
	jb.mu.Lock()
	payload := jb.payload
	jb.mu.Unlock()
	if payload == nil {
		writeError(w, http.StatusNotFound, "result for %s no longer available", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(payload)
}

// handleEvents is GET /v1/jobs/{id}/events: the job's live event stream
// as NDJSON. Slow consumers lose events (counted on the terminal line)
// rather than slowing the simulation; every stream ends with a job_done
// line.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jb := s.lookupJob(id)
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	// Subscribe before the headers go out: a client that holds them is
	// then sure to see every event the job publishes from here on.
	sub := jb.hub.subscribe(256)
	defer jb.hub.unsubscribe(sub)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out immediately so clients see the stream open
		// before the first event arrives.
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	ctx := r.Context()
	var batch []Event
	for {
		select {
		case <-sub.ready:
		case <-ctx.Done():
			return
		}
		// Everything queued since the last wake goes out in one flush: a
		// stream that fell behind catches up in one write, not one per
		// event.
		var open bool
		batch, open = jb.hub.take(sub, batch)
		for _, ev := range batch {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if !open {
			final := jb.hub.finalEvent()
			if final.Type == "" {
				final = Event{Type: "job_done", State: "unknown"}
			}
			final.Dropped = sub.dropped.Load()
			_ = enc.Encode(final)
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !open {
			return
		}
	}
}

// handleHealthz is liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: accepting new work.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := !s.draining && !s.closed
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("draining\n"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

// handleMetrics is the Prometheus-style exposition of the registry. It
// first folds the running jobs' engine metrics into the server's, so the
// engine counters are current to the scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	for _, m := range s.jobMetrics {
		s.probe.Fold(m)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.opts.Registry.WriteText(w)
}
