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
	"time"

	"bitspread/internal/cli"
	"bitspread/internal/fabric"
)

// PullWorkerOptions configures RunPullWorker, the client half of the
// fabric coordinator API (/v1/lease*). A pull worker owns no sweep
// configuration: the coordinator's lease response carries the
// fabric.SweepSpec, so every worker in the fleet computes the same
// deterministic shard regardless of its local flags.
type PullWorkerOptions struct {
	// URL is the coordinator base URL, e.g. "http://host:8080".
	URL string
	// Name identifies this worker in lease requests and logs, and seeds
	// its retry jitter. Required.
	Name string
	// ShardDir holds this worker's shard journals
	// (shard-<partition>.jsonl). Shards resume: a worker restarted
	// after a crash re-opens its checkpoint and recomputes only the
	// missing replicas. Required.
	ShardDir string
	// Client is the HTTP client; nil means a 1-minute-timeout client.
	Client *http.Client
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

func (o *PullWorkerOptions) withDefaults() error {
	if o.URL == "" {
		return errors.New("pull worker needs a coordinator URL")
	}
	if o.Name == "" {
		return errors.New("pull worker needs a name: it names the worker's log lines and seeds its retry jitter")
	}
	if o.ShardDir == "" {
		return errors.New("pull worker needs a shard directory for its checkpoints")
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: time.Minute}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// RunPullWorker leases partitions from a fabric coordinator until the
// sweep drains: lease → run the shard locally (checkpointing to
// ShardDir, heartbeating the lease) → upload the shard bytes → repeat.
// It returns nil once the coordinator answers "done", and ctx.Err()
// if cancelled. The coordinator holds a lease request while every
// partition is leased, so a "wait" answer, or a lease request that
// outlasts the client's timeout, is asked again at once.
// Transient coordinator errors (unreachable, 5xx, a draining
// coordinator) are retried on a jittered backoff, reset by each granted
// lease; losing a lease mid-shard (renew answers 410 Gone) abandons that
// partition and asks for the next one.
func RunPullWorker(ctx context.Context, opts PullWorkerOptions) error {
	if err := opts.withDefaults(); err != nil {
		return err
	}
	if err := os.MkdirAll(opts.ShardDir, 0o755); err != nil {
		return err
	}
	w := &pullWorker{opts: opts, backoff: cli.NewBackoff(200*time.Millisecond, 5*time.Second, fabric.Assign(opts.Name, 0))}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lr, err := w.lease(ctx)
		var timeout interface{ Timeout() bool }
		if err != nil && ctx.Err() == nil && errors.As(err, &timeout) && timeout.Timeout() {
			// The coordinator held the request past this client's
			// timeout: as after a "wait" answer, ask again at once.
			continue
		}
		if err != nil {
			opts.Logf("worker %s: lease: %v (retrying)", opts.Name, err)
			if serr := w.sleep(ctx, w.backoff.Next()); serr != nil {
				return serr
			}
			continue
		}
		switch lr.Status {
		case "done":
			opts.Logf("worker %s: sweep drained", opts.Name)
			return nil
		case "wait":
			// The coordinator already held this answer for up to TTL/3.
		case "lease":
			w.backoff.Reset()
			if err := w.runLease(ctx, lr); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				// The lease will expire and be re-issued; the journal
				// keeps the finished replicas for our next attempt.
				opts.Logf("worker %s: partition %d: %v (abandoning lease)", opts.Name, lr.Partition, err)
				if serr := w.sleep(ctx, w.backoff.Next()); serr != nil {
					return serr
				}
			}
		default:
			return fmt.Errorf("coordinator answered unknown lease status %q", lr.Status)
		}
	}
}

type pullWorker struct {
	opts    PullWorkerOptions
	backoff *cli.Backoff
}

// runLease computes one leased shard and uploads it: the lease is
// heartbeated at TTL/3 while fabric.RunShard works, and a 410 on renew
// cancels the shard immediately (another worker owns it now — finishing
// would only produce a duplicate upload).
func (w *pullWorker) runLease(ctx context.Context, lr LeaseResponse) error {
	shard := fabric.Shard{Index: lr.Partition, Count: lr.Partitions}
	if lr.Spec == nil {
		return fmt.Errorf("lease %s carries no sweep spec", lr.LeaseID)
	}
	path := filepath.Join(w.opts.ShardDir, fmt.Sprintf("shard-%d.jsonl", lr.Partition))
	w.opts.Logf("worker %s: leased partition %s (lease %s)", w.opts.Name, shard, lr.LeaseID)

	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := make(chan struct{})
	heartbeatDone := make(chan struct{})
	go func() {
		defer close(heartbeatDone)
		interval := time.Duration(lr.TTLMillis) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-ticker.C:
				ok, err := w.renew(shardCtx, lr.LeaseID)
				if err != nil {
					// Transient: the lease may still be live; keep
					// computing and try again next tick.
					w.opts.Logf("worker %s: renew %s: %v", w.opts.Name, lr.LeaseID, err)
					continue
				}
				if !ok {
					close(lost)
					cancel()
					return
				}
			}
		}
	}()

	stats, err := fabric.RunShard(shardCtx, *lr.Spec, shard, path, true, w.opts.Logf)
	cancel()
	<-heartbeatDone
	select {
	case <-lost:
		return fmt.Errorf("lease %s superseded while computing", lr.LeaseID)
	default:
	}
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cr, err := w.complete(ctx, lr.LeaseID, data)
	if err != nil {
		return err
	}
	w.opts.Logf("worker %s: partition %d complete: %d replicas uploaded (duplicate=%v)",
		w.opts.Name, cr.Partition, stats.Checkpointed, cr.Duplicate)
	return nil
}

func (w *pullWorker) lease(ctx context.Context) (LeaseResponse, error) {
	body, _ := json.Marshal(LeaseRequest{Worker: w.opts.Name})
	var lr LeaseResponse
	err := w.post(ctx, "/v1/lease", "application/json", body, &lr)
	return lr, err
}

// renew heartbeats a lease: (false, nil) means the lease is gone for
// good (410) and the worker must abandon the partition.
func (w *pullWorker) renew(ctx context.Context, leaseID string) (bool, error) {
	err := w.post(ctx, "/v1/lease/"+leaseID+"/renew", "application/json", nil, nil)
	var herr *httpError
	if errors.As(err, &herr) && herr.status == http.StatusGone {
		return false, nil
	}
	return err == nil, err
}

func (w *pullWorker) complete(ctx context.Context, leaseID string, shard []byte) (CompleteResponse, error) {
	var cr CompleteResponse
	err := w.post(ctx, "/v1/lease/"+leaseID+"/complete", "application/x-ndjson", shard, &cr)
	return cr, err
}

// httpError is a non-2xx coordinator answer; the status code lets
// callers distinguish routine protocol answers (410 Gone) from faults.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("coordinator answered %d: %s", e.status, e.body)
}

func (w *pullWorker) post(ctx context.Context, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &httpError{status: resp.StatusCode, body: string(bytes.TrimSpace(raw))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (w *pullWorker) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
