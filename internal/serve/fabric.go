package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
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
// crashed coordinator never re-runs finished partitions.
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

// fabricState is the coordinator: the lease board plus the uploaded shard
// bytes, both guarded by one mutex (board operations are cheap).
type fabricState struct {
	mu     sync.Mutex
	spec   fabric.SweepSpec
	board  *fabric.Board
	shards [][]byte       // uploaded shard journals, indexed by partition; nil = not done
	leases map[string]int // every lease granted since start → its partition
	dir    string         // persistence root, "" = memory only
	fsys   durable.FS
	now    func() time.Time
	logf   func(string, ...any)
}

// newFabricState builds the coordinator and replays persisted shards.
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
		shards: make([][]byte, opts.Partitions),
		leases: map[string]int{},
		fsys:   fsys,
		now:    now,
		logf:   logf,
	}
	if dataDir != "" {
		fs.dir = filepath.Join(dataDir, "fabric")
		if err := os.MkdirAll(fs.dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: fabric dir: %w", err)
		}
		for i := 0; i < opts.Partitions; i++ {
			data, err := os.ReadFile(fs.shardPath(i))
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("serve: fabric shard %d: %w", i, err)
			}
			fs.shards[i] = data
			if err := board.MarkDone(i); err != nil {
				return nil, err
			}
			logf("serve: fabric: partition %d pre-completed from %s (%d bytes)", i, fs.shardPath(i), len(data))
		}
	}
	return fs, nil
}

func (f *fabricState) shardPath(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard-%d.jsonl", i))
}

// errShardNotDurable marks a first upload that could not be persisted.
var errShardNotDurable = errors.New("shard not persisted")

// complete stores a partition's shard bytes. The first upload must merge
// with itself (or it would poison the final join) and is made durable
// before the board marks the partition done, so one that fails either
// step leaves the partition leased, to be re-issued when its lease
// expires; a partition has bytes exactly when the board has marked it
// done. A duplicate completion (a stolen lease's second copy, a
// re-leased worker resurfacing) is verified merge-consistent with the
// stored bytes — shard files are not byte-ordered deterministically under
// parallel sim workers, but their entry sets are — and then dropped.
func (f *fabricState) complete(leaseID string, data []byte) (partIdx int, duplicate bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if part, ok := f.leases[leaseID]; ok && f.shards[part] == nil {
		if _, merr := sim.MergeJournals(io.Discard, []sim.MergeSource{{Name: "upload", Data: data}}); merr != nil {
			return part, false, fmt.Errorf("shard %d upload is not a parseable journal: %w", part, merr)
		}
		if f.dir != "" {
			if perr := durable.Publish(f.fsys, f.shardPath(part), data); perr != nil {
				return part, false, fmt.Errorf("%w: shard %d: %v", errShardNotDurable, part, perr)
			}
		}
		f.shards[part] = data
	}
	part, already, err := f.board.Complete(leaseID)
	if err != nil {
		return 0, false, err
	}
	if already {
		if _, merr := sim.MergeJournals(io.Discard, []sim.MergeSource{
			{Name: "stored", Data: f.shards[part]},
			{Name: "duplicate", Data: data},
		}); merr != nil {
			return part, true, fmt.Errorf("duplicate shard %d upload conflicts with the stored copy: %w", part, merr)
		}
		return part, true, nil
	}
	return part, false, nil
}

// merged renders the canonical merged journal, or an error while shards
// are still outstanding.
func (f *fabricState) merged(w io.Writer) (sim.MergeStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.board.Drained() {
		st := f.board.Stats()
		return sim.MergeStats{}, fmt.Errorf("sweep incomplete: %d pending, %d leased of %d partitions", st.Pending, st.Leased, f.board.Count())
	}
	srcs := make([]sim.MergeSource, len(f.shards))
	for i, data := range f.shards {
		srcs[i] = sim.MergeSource{Name: fmt.Sprintf("shard-%d", i), Data: data}
	}
	return sim.MergeJournals(w, srcs)
}

// --- HTTP API ---

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers lease acquisition and renewal.
type LeaseResponse struct {
	// Status is "lease", "wait" (every live partition is leased; ask
	// again after a backoff) or "done".
	Status string `json:"status"`
	// LeaseID, Partition, Partitions and Spec are set when Status=="lease".
	LeaseID    string            `json:"lease_id,omitempty"`
	Partition  int               `json:"partition,omitempty"`
	Partitions int               `json:"partitions,omitempty"`
	Stolen     bool              `json:"stolen,omitempty"`
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
	f.mu.Lock()
	status, lease := f.board.Acquire(req.Worker, f.now())
	if status == fabric.Granted {
		f.leases[lease.ID] = lease.Shard.Index
	}
	f.mu.Unlock()
	switch status {
	case fabric.Granted:
		spec := f.spec
		writeJSON(w, http.StatusOK, LeaseResponse{
			Status:     "lease",
			LeaseID:    lease.ID,
			Partition:  lease.Shard.Index,
			Partitions: lease.Shard.Count,
			Stolen:     lease.Stolen,
			TTLMillis:  f.board.TTL().Milliseconds(),
			Spec:       &spec,
		})
	case fabric.Wait:
		writeJSON(w, http.StatusOK, LeaseResponse{Status: "wait"})
	default:
		writeJSON(w, http.StatusOK, LeaseResponse{Status: "done"})
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
