package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"bitspread/internal/durable"
	"bitspread/internal/fabric"
	"bitspread/internal/sim"
)

// FabricOptions turns the daemon into a sweep coordinator: it owns a
// fabric.Board over Partitions shards of the configured sweep and hands
// leases to pulling workers (`bitspreadd -pull`). Completed shard bytes
// are persisted under DataDir/fabric/ and pre-completed on restart, so a
// crashed coordinator never re-runs finished partitions whose files still
// parse.
type FabricOptions struct {
	// Exps selects the sweep's experiments (nil: all).
	Exps []string
	// Seed drives all sweep randomness.
	Seed uint64
	// Quick selects reduced experiment sizes.
	Quick bool
	// Partitions is the shard count N (default 2).
	Partitions int
	// LeaseTTL is how long a worker may go silent before its partition is
	// re-issued to a survivor (default 1m). Workers renew at a fraction
	// of this.
	LeaseTTL time.Duration
	// SimWorkers is handed through to each worker's shard run (0: the
	// worker's GOMAXPROCS). Never affects merged bytes.
	SimWorkers int
}

func (o FabricOptions) withDefaults() FabricOptions {
	if o.Partitions <= 0 {
		o.Partitions = 2
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = time.Minute
	}
	return o
}

func (o FabricOptions) spec() fabric.SweepSpec {
	return fabric.SweepSpec{Exps: o.Exps, Seed: o.Seed, Quick: o.Quick, SimWorkers: o.SimWorkers}
}

// fabricState is the coordinator: the lease board plus the parsed shard
// journals, both guarded by one mutex. Board operations are cheap; the
// parse and the final merge run without it.
type fabricState struct {
	mu     sync.Mutex
	spec   fabric.SweepSpec
	board  *fabric.Board
	shards []*sim.ParsedJournal // first uploads, parsed, indexed by partition; nil = not done
	dir    string               // persistence root, "" = memory only
	fsys   durable.FS
	now    func() time.Time
	logf   func(string, ...any)

	// changed is closed, and replaced, when a partition first completes:
	// it wakes the lease requests held on a wait answer.
	changed chan struct{}
}

// newFabricState builds the coordinator and replays persisted shards. A
// persisted shard that no longer parses, or that an older build stored
// torn, is logged and its partition left pending, so it is leased again
// and the next upload replaces the file.
func newFabricState(opts FabricOptions, dataDir string, fsys durable.FS, now func() time.Time, logf func(string, ...any)) (*fabricState, error) {
	opts = opts.withDefaults()
	if _, err := opts.spec().Experiments(); err != nil {
		return nil, err
	}
	board, err := fabric.NewBoard(opts.Partitions, opts.LeaseTTL)
	if err != nil {
		return nil, err
	}
	if now == nil {
		//bitlint:wallclock lease expiry is serving policy; simulation results never read it
		now = time.Now
	}
	fs := &fabricState{
		spec:   opts.spec(),
		board:  board,
		shards: make([]*sim.ParsedJournal, opts.Partitions),
		fsys:   fsys,
		now:    now,
		logf:   logf,

		changed: make(chan struct{}),
	}
	if dataDir != "" {
		fs.dir = filepath.Join(dataDir, "fabric")
		if err := os.MkdirAll(fs.dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: fabric dir: %w", err)
		}
		for i := 0; i < opts.Partitions; i++ {
			path := fs.shardPath(i)
			data, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("serve: fabric shard %d: %w", i, err)
			}
			shard, err := parseShard(path, data)
			if err != nil {
				logf("serve: fabric: partition %d left pending: %s no longer parses: %v", i, path, err)
				continue
			}
			fs.shards[i] = shard
			if err := board.MarkDone(i); err != nil {
				return nil, err
			}
			logf("serve: fabric: partition %d pre-completed from %s (%d bytes)", i, path, len(data))
		}
	}
	return fs, nil
}

func (f *fabricState) shardPath(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard-%d.jsonl", i))
}

// parseShard parses one shard journal and checks that it merges with
// itself, as the final merge will need. A finished worker's shard ends in
// a newline, so a torn last line, which sim.ParseJournal drops as a killed
// writer's would be, is an error here: the shard would lack that replica.
func parseShard(name string, data []byte) (*sim.ParsedJournal, error) {
	if len(data) > 0 && data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("%s: last line has no newline (torn upload)", name)
	}
	shard, err := sim.ParseJournal(sim.MergeSource{Name: name, Data: data})
	if err != nil {
		return nil, err
	}
	return shard, sim.CheckParsed(shard)
}

// errShardNotDurable marks a first upload that could not be persisted.
var errShardNotDurable = errors.New("shard not persisted")

// complete stores a partition's shard. The upload is parsed once,
// without f.mu, so leases, renewals and status requests go on meanwhile.
// The first upload must merge with itself (or it would poison the final
// join) and is made durable before the board marks the partition done,
// so one that fails either step leaves the partition leased, to be
// re-issued when its lease expires. A duplicate completion (a re-leased
// partition's old holder resurfacing, a retried upload, or one that lost
// the race to the lock) is verified merge-consistent with the stored
// shard — shard files are not byte-ordered deterministically under
// parallel sim workers, but their entry sets are — and then dropped.
func (f *fabricState) complete(leaseID string, data []byte) (part int, duplicate bool, err error) {
	f.mu.Lock()
	part, err = f.board.PartitionOf(leaseID)
	var stored *sim.ParsedJournal
	if err == nil {
		stored = f.shards[part]
	}
	f.mu.Unlock()
	if err != nil {
		return 0, false, err
	}
	upload, err := parseShard(fmt.Sprintf("shard-%d upload (lease %s)", part, leaseID), data)
	if stored == nil {
		if err != nil {
			return part, false, fmt.Errorf("shard %d upload is not a parseable journal: %w", part, err)
		}
		if stored, err = f.store(part, leaseID, upload, data); stored == nil || err != nil {
			return part, false, err
		}
	}
	if err == nil {
		err = sim.CheckParsed(stored, upload)
	}
	if err != nil {
		return part, true, fmt.Errorf("duplicate shard %d upload conflicts with the stored copy: %w", part, err)
	}
	return part, true, nil
}

// store makes upload part's shard, durable first, marks the partition
// done and wakes the held lease requests, so a partition has a shard
// exactly when the board has marked it done. If an earlier upload got
// there first, store changes nothing and returns that upload's shard.
func (f *fabricState) store(part int, leaseID string, upload *sim.ParsedJournal, data []byte) (*sim.ParsedJournal, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shards[part] != nil {
		return f.shards[part], nil
	}
	if f.dir != "" {
		if err := durable.Publish(f.fsys, f.shardPath(part), data); err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", errShardNotDurable, part, err)
		}
	}
	f.shards[part] = upload
	// Complete cannot fail: PartitionOf accepted the ID, and a
	// partition's generations only grow.
	f.board.Complete(leaseID)
	close(f.changed)
	f.changed = make(chan struct{})
	return nil, nil
}

// merged renders the canonical merged journal, or an error while shards
// are still outstanding. Stored shards never change, so the merge runs
// without f.mu.
func (f *fabricState) merged(w io.Writer) (sim.MergeStats, error) {
	f.mu.Lock()
	if !f.board.Drained() {
		st := f.board.Stats()
		f.mu.Unlock()
		return sim.MergeStats{}, fmt.Errorf("sweep incomplete: %d pending, %d leased of %d partitions", st.Pending, st.Leased, f.board.Count())
	}
	shards := slices.Clone(f.shards)
	f.mu.Unlock()
	return sim.MergeParsed(w, shards...)
}

// --- HTTP API ---

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers lease acquisition and renewal.
type LeaseResponse struct {
	// Status is "lease", "wait" (every partition not done was still
	// leased when the hold reached its cap; ask again) or "done".
	Status string `json:"status"`
	// LeaseID, Partition, Partitions and Spec are set when Status=="lease".
	LeaseID    string            `json:"lease_id,omitempty"`
	Partition  int               `json:"partition,omitempty"`
	Partitions int               `json:"partitions,omitempty"`
	TTLMillis  int64             `json:"ttl_ms,omitempty"`
	Spec       *fabric.SweepSpec `json:"spec,omitempty"`
}

// handleLease is POST /v1/lease: a worker asks for its next partition.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if s.fabric == nil {
		writeError(w, http.StatusNotFound, "fabric coordinator not enabled")
		return
	}
	var req LeaseRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease request: %v", err)
		return
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "lease request needs a worker name")
		return
	}
	f := s.fabric
	status, lease, err := s.awaitLease(r.Context(), req.Worker)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "lease request ended while waiting: %v", err)
		return
	}
	switch status {
	case fabric.Granted:
		spec := f.spec
		writeJSON(w, http.StatusOK, LeaseResponse{
			Status:     "lease",
			LeaseID:    lease.ID,
			Partition:  lease.Shard.Index,
			Partitions: lease.Shard.Count,
			TTLMillis:  f.board.TTL().Milliseconds(),
			Spec:       &spec,
		})
	case fabric.Wait:
		writeJSON(w, http.StatusOK, LeaseResponse{Status: "wait"})
	default:
		writeJSON(w, http.StatusOK, LeaseResponse{Status: "done"})
	}
}

// awaitLease runs Acquire for worker and, while it answers Wait, waits
// without f.mu until a first completion closes f.changed or the earliest
// live lease expires, then runs Acquire again. The hold is capped at
// TTL/3, the holders' renew interval, after which the Wait stands. The
// request's end, a drain or Close ends the hold with an error, so a held
// request never delays shutdown.
func (s *Server) awaitLease(ctx context.Context, worker string) (fabric.AcquireStatus, fabric.Lease, error) {
	f := s.fabric
	capped := time.NewTimer(f.board.TTL() / 3)
	defer capped.Stop()
	held := true
	for {
		// changed is read under the lock that answered, so no completion
		// falls between the answer and the wait.
		f.mu.Lock()
		status, lease := f.board.Acquire(worker, f.now())
		changed := f.changed
		f.mu.Unlock()
		if status != fabric.Wait || !held {
			return status, lease, nil
		}
		expired := time.NewTimer(lease.Expiry.Sub(f.now()))
		var err error
		select {
		case <-changed:
		case <-expired.C:
		case <-capped.C:
			held = false
		case <-ctx.Done():
			err = ctx.Err()
		case <-s.drainStarted:
			err = errors.New("server is draining")
		}
		expired.Stop()
		if err != nil {
			return 0, fabric.Lease{}, err
		}
	}
}

// handleLeaseRenew is POST /v1/lease/{id}/renew: a heartbeat. 410 means
// the lease was superseded and the worker should abandon the partition.
func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	if s.fabric == nil {
		writeError(w, http.StatusNotFound, "fabric coordinator not enabled")
		return
	}
	id := r.PathValue("id")
	f := s.fabric
	f.mu.Lock()
	ok := f.board.Renew(id, f.now())
	f.mu.Unlock()
	if !ok {
		writeError(w, http.StatusGone, "lease %s is no longer current (expired and re-issued, or partition done)", id)
		return
	}
	writeJSON(w, http.StatusOK, LeaseResponse{Status: "lease", LeaseID: id, TTLMillis: s.fabric.board.TTL().Milliseconds()})
}

// CompleteResponse answers a shard upload.
type CompleteResponse struct {
	Partition int  `json:"partition"`
	Duplicate bool `json:"duplicate"`
}

// handleLeaseComplete is POST /v1/lease/{id}/complete with the shard
// journal bytes as the body. A 200 means the shard is durable; 503 means
// it could not be persisted and the partition stays leasable.
func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	if s.fabric == nil {
		writeError(w, http.StatusNotFound, "fabric coordinator not enabled")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxShardUpload))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "shard upload: %v", err)
		return
	}
	part, duplicate, err := s.fabric.complete(r.PathValue("id"), data)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case duplicate:
			status = http.StatusConflict
		case errors.Is(err, errShardNotDurable):
			status = http.StatusServiceUnavailable
			s.fabric.logf("serve: fabric: %v", err)
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, CompleteResponse{Partition: part, Duplicate: duplicate})
}

// FabricStatus is the body of GET /v1/fabric/status.
type FabricStatus struct {
	Partitions int               `json:"partitions"`
	Board      fabric.BoardStats `json:"board"`
	Drained    bool              `json:"drained"`
	Spec       fabric.SweepSpec  `json:"spec"`
}

// handleFabricStatus is GET /v1/fabric/status.
func (s *Server) handleFabricStatus(w http.ResponseWriter, r *http.Request) {
	if s.fabric == nil {
		writeError(w, http.StatusNotFound, "fabric coordinator not enabled")
		return
	}
	f := s.fabric
	f.mu.Lock()
	st := FabricStatus{
		Partitions: f.board.Count(),
		Board:      f.board.Stats(),
		Drained:    f.board.Drained(),
		Spec:       f.spec,
	}
	f.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// handleFabricJournal is GET /v1/fabric/journal: the canonical merged
// checkpoint, available once every partition completed (409 before).
func (s *Server) handleFabricJournal(w http.ResponseWriter, r *http.Request) {
	if s.fabric == nil {
		writeError(w, http.StatusNotFound, "fabric coordinator not enabled")
		return
	}
	var buf bytes.Buffer
	stats, err := s.fabric.merged(&buf)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Merge-Stats", stats.String())
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// maxShardUpload bounds one shard journal upload (64 MiB — a full
// non-quick sweep journal is a few MiB).
const maxShardUpload = 64 << 20
