// Command bitspreadd is the crash-safe simulation daemon: a JSON HTTP
// service that accepts bit-dissemination jobs, runs them on a bounded
// worker pool behind per-tenant quotas and queue-depth admission
// control, and survives kills.
//
// Every accepted job is fsynced to an intent log before the client sees
// 202, every finished replica is checkpointed through the sim journal,
// and completed results are published to a content-addressed cache — so
// a SIGKILL'd daemon restarted on the same -data directory resumes its
// unfinished jobs and lands on byte-identical results. SIGTERM/SIGINT
// drain gracefully: in-flight jobs finish under -drain-timeout while new
// submissions get 503, then the process exits 0.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job spec (202, or 200 if cached)
//	GET    /v1/jobs             list known jobs
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/result canonical result payload (done jobs)
//	GET    /v1/jobs/{id}/events live NDJSON round/replica event stream
//	POST   /v1/protocols        register user bytecode (201, or 200 if known)
//	GET    /v1/protocols        list registered protocols
//	GET    /v1/protocols/{id}   one protocol with canonical disassembly
//	GET    /healthz, /readyz    liveness / readiness
//	GET    /metrics             Prometheus-style exposition
//
// User-defined decision rules arrive as gas-metered stack bytecode
// (internal/vm): POST /v1/protocols validates, classifies (environment
// models violating Proposition 3 are rejected with 422), and persists
// the program under its content address; jobs then reference it as
// "rule": "vm:<id>". Registered protocols survive restarts and replay
// before the job log, so recovered jobs resolve their bytecode.
//
// Examples:
//
//	bitspreadd -addr 127.0.0.1:8642 -data /var/lib/bitspreadd
//	curl -s localhost:8642/v1/jobs -d '{"n":4096,"z":1,"rule":"voter","replicas":100,"seed":7}'
//	curl -s localhost:8642/v1/jobs/<id>/result | jq .success_rate
//	curl -s localhost:8642/v1/protocols -d '{"asm":"name myrule\nell 2\nfrac\nhalt\n"}'
//	curl -s localhost:8642/v1/jobs -d '{"n":4096,"z":1,"rule":"vm:<id>","replicas":100,"seed":7}'
//
// With -fabric-exp the daemon additionally coordinates a distributed
// sweep (internal/fabric): it leases deterministic partitions of the
// (task, replica) space to pull workers over /v1/lease, re-issues
// leases whose holders die, and serves the merged journal — which is
// byte-identical to a single-process run — at /v1/fabric/journal.
// With -pull the process is a fleet worker instead of a daemon: it
// leases partitions from a coordinator, computes them locally with
// crash-safe shard checkpoints, and uploads the results until the
// sweep drains.
//
//	bitspreadd -addr :8642 -fabric-exp T2,F1 -fabric-partitions 4   # coordinator
//	bitspreadd -pull http://host:8642 -worker w1 -shard-dir /tmp/w1  # worker
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bitspread/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bitspreadd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until ctx is cancelled (the signal
// handler) and the drain completes. The "listening on" line goes to w so
// callers binding port 0 can discover the address.
func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bitspreadd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8642", "listen address (host:port, port 0 picks a free one)")
		data         = fs.String("data", "", "durable state directory: intent log, replica journal, result cache (empty: memory-only, no crash recovery)")
		workers      = fs.Int("workers", 2, "job worker pool size")
		simWorkers   = fs.Int("sim-workers", 1, "replica parallelism within one job")
		queue        = fs.Int("queue", 64, "max jobs waiting for a worker; a full queue rejects with 503")
		rate         = fs.Float64("rate", 0, "per-tenant admission rate in jobs/second (0: quotas disabled)")
		burst        = fs.Int("burst", 8, "per-tenant token-bucket burst capacity")
		jobTimeout   = fs.Duration("job-timeout", 10*time.Minute, "wall-clock cap per job; specs may ask for less, never more")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget after SIGTERM/SIGINT")

		fabricExp        = fs.String("fabric-exp", "", "coordinate a distributed sweep of these comma-separated experiment IDs ('all': every experiment); enables the /v1/lease and /v1/fabric endpoints")
		fabricPartitions = fs.Int("fabric-partitions", 2, "number of (task, replica) partitions the fabric sweep is split into")
		fabricSeed       = fs.Uint64("fabric-seed", 2024, "random seed for the fabric sweep")
		fabricQuick      = fs.Bool("fabric-quick", false, "run the fabric sweep with reduced experiment sizes")
		fabricSimWorkers = fs.Int("fabric-sim-workers", 1, "replica parallelism each fabric worker uses inside its shard (0: worker's GOMAXPROCS)")
		leaseTTL         = fs.Duration("lease-ttl", time.Minute, "fabric lease time-to-live; a lease not renewed within this window is re-issued to another worker")

		pull       = fs.String("pull", "", "run as a fabric pull worker against this coordinator URL instead of serving")
		workerName = fs.String("worker", "", "worker name for -pull mode (lease accounting is per-worker)")
		shardDir   = fs.String("shard-dir", "", "crash-safe shard checkpoint directory for -pull mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	if *pull != "" {
		if *fabricExp != "" {
			return fmt.Errorf("-pull and -fabric-exp are mutually exclusive: a process is either a worker or a coordinator")
		}
		return runPullWorker(ctx, w, *pull, *workerName, *shardDir)
	}
	if *workerName != "" || *shardDir != "" {
		return fmt.Errorf("-worker and -shard-dir only apply in -pull mode")
	}

	// Operational diagnostics go to stderr via a mutex-protected logger;
	// stdout carries only the machine-scrapable lifecycle lines.
	diag := log.New(os.Stderr, "bitspreadd: ", 0)
	var fabricOpts *serve.FabricOptions
	if *fabricExp != "" {
		var exps []string
		if *fabricExp != "all" {
			exps = strings.Split(*fabricExp, ",")
		}
		fabricOpts = &serve.FabricOptions{
			Exps:       exps,
			Seed:       *fabricSeed,
			Quick:      *fabricQuick,
			Partitions: *fabricPartitions,
			LeaseTTL:   *leaseTTL,
			SimWorkers: *fabricSimWorkers,
		}
		diag.Printf("fabric coordinator enabled: exps=%s partitions=%d ttl=%s", *fabricExp, *fabricPartitions, *leaseTTL)
	}

	s, err := serve.New(serve.Options{
		DataDir:     *data,
		Workers:     *workers,
		SimWorkers:  *simWorkers,
		QueueDepth:  *queue,
		TenantRate:  *rate,
		TenantBurst: *burst,
		JobTimeout:  *jobTimeout,
		Fabric:      fabricOpts,
		Logf:        diag.Printf,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		return err
	}
	fmt.Fprintf(w, "bitspreadd: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.Close()
		return fmt.Errorf("http server: %w", err)
	case <-ctx.Done():
	}

	// Graceful degradation: readiness flips and new submissions get 503
	// immediately, in-flight jobs get drainTimeout to finish, and whatever
	// the deadline cuts off is left resumable in the journal — so the
	// daemon still exits 0 with its state safe on disk.
	fmt.Fprintln(w, "bitspreadd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if derr := s.Drain(dctx); derr != nil {
		diag.Printf("drain deadline exceeded; interrupted jobs will resume from the journal on restart")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if serr := httpSrv.Shutdown(sctx); serr != nil {
		diag.Printf("http shutdown: %v", serr)
	}
	fmt.Fprintln(w, "bitspreadd: stopped")
	return nil
}

// runPullWorker is -pull mode: lease partitions from the coordinator,
// compute them with crash-safe checkpoints, upload, repeat until the
// sweep drains. The lifecycle lines on w mirror the daemon's so the
// same supervisors can scrape either mode.
func runPullWorker(ctx context.Context, w io.Writer, url, name, dir string) error {
	diag := log.New(os.Stderr, "bitspreadd: ", 0)
	fmt.Fprintf(w, "bitspreadd: worker %s pulling from %s\n", name, url)
	err := serve.RunPullWorker(ctx, serve.PullWorkerOptions{
		URL:      url,
		Name:     name,
		ShardDir: dir,
		Logf:     diag.Printf,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bitspreadd: worker %s done\n", name)
	return nil
}
