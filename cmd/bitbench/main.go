// Command bitbench records the scaling matrices of the simulation stack:
// the packed-scale suite times the bitset agent engine over a GOMAXPROCS ×
// shards × n matrix, and the fabric-scale suite times the distributed
// sweep's lease-compute-merge cycle over worker counts. Each invocation
// appends one JSON record to a trajectory file (default
// BENCH_engines.json), so performance across commits accumulates into a
// machine-readable history. The repo's end-to-end and per-layer benchmark
// lives in benchmark/ (bash benchmark/run.sh); bitbench keeps only the
// matrices that benchmark does not cover.
//
// -cpuprofile/-memprofile write pprof profiles of the run, so engine hot
// paths can be profiled without a separate harness.
//
// SIGINT/SIGTERM stop the run at the next benchmark boundary and still
// flush a record with the measurements taken so far (flagged
// "interrupted"), so a cancelled session never loses its data.
//
// Examples:
//
//	bitbench -suite packed-scale -out - -budget 20ms   # quick look, record to stdout
//	bitbench -suite packed-scale -scale-procs 1,2,4 -scale-shards 1,4
//	                                       # GOMAXPROCS × shards × n matrix
//	bitbench -suite fabric-scale -fabric-workers 1,2,4
//	                                       # distributed-sweep worker scaling
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fabric"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bitbench:", err)
		os.Exit(1)
	}
}

// measurement is one timed benchmark in the output record.
type measurement struct {
	// NsPerOp is the wall time per operation: one full engine run for the
	// packed-scale cells, one merged checkpoint for the fabric-scale ones.
	NsPerOp float64 `json:"ns_per_op"`
	// Ops is how many operations the timing window executed.
	Ops int64 `json:"ops"`
	// AgentRoundsPerSec is the throughput unit of the packed-scale suite:
	// agent-rounds (n × rounds executed) per wall-clock second. Zero for
	// benchmarks outside that suite.
	AgentRoundsPerSec float64 `json:"agent_rounds_per_sec,omitempty"`
	// TasksPerSec is the throughput unit of the fabric-scale suite:
	// merged (task, replica) checkpoints per wall-clock second of the
	// whole lease-compute-merge cycle. Zero outside that suite.
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
	// Steals counts speculative lease duplications the fabric-scale
	// cell's idle workers performed (fabric.BoardStats.Steals).
	Steals int64 `json:"steals,omitempty"`
}

// record is one line of the trajectory file.
type record struct {
	Timestamp  string                 `json:"timestamp"`
	GoVersion  string                 `json:"go_version"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	Benchmarks map[string]measurement `json:"benchmarks"`
	// Interrupted marks a record flushed after SIGINT/SIGTERM: the
	// benchmarks map holds only what finished before the signal.
	Interrupted bool `json:"interrupted,omitempty"`
}

func run(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("bitbench", flag.ContinueOnError)
	var prof obs.Profile
	prof.Register(fs)
	var (
		out         = fs.String("out", "BENCH_engines.json", "trajectory file to append the JSON record to (- for stdout)")
		budget      = fs.Duration("budget", 200*time.Millisecond, "minimum timing window per packed-scale cell")
		maxProcs    = fs.Int("gomaxprocs", runtime.NumCPU(), "GOMAXPROCS for the benchmark run (recorded in the output)")
		suite       = fs.String("suite", "packed-scale", "benchmark suite: packed-scale (GOMAXPROCS × shards × n matrix) or fabric-scale (distributed-sweep workers × partitions matrix)")
		fabWorkers  = fs.String("fabric-workers", "1,2,4", "fabric-scale worker counts, CSV")
		fabParts    = fs.Int("fabric-partitions", 4, "fabric-scale partitions per cell (more partitions than workers exercises the lease queue)")
		fabExps     = fs.String("fabric-exp", "T2", "fabric-scale experiment IDs, comma-separated")
		scaleProcs  = fs.String("scale-procs", "", "packed-scale GOMAXPROCS values, CSV (default: 1,2,4,… up to NumCPU)")
		scaleNs     = fs.String("scale-ns", "1048576,16777216", "packed-scale population sizes, CSV")
		scaleShards = fs.String("scale-shards", "", "packed-scale shard counts, CSV (default: 1 and NumCPU)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var specs []benchSpec
	switch *suite {
	case "packed-scale":
		specs, err = packedScaleSpecs(ctx, *scaleProcs, *scaleNs, *scaleShards, *budget)
		// Each cell sets its own GOMAXPROCS; restore the flag value for
		// whatever runs after the matrix.
		defer runtime.GOMAXPROCS(*maxProcs)
	case "fabric-scale":
		specs, err = fabricScaleSpecs(ctx, *fabWorkers, *fabParts, *fabExps)
	default:
		return fmt.Errorf("unknown suite %q (want packed-scale or fabric-scale; the end-to-end and per-layer benchmark is bash benchmark/run.sh)", *suite)
	}
	if err != nil {
		return err
	}
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	rec := record{
		//bitlint:wallclock record timestamp is provenance metadata; no simulation state depends on it
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: map[string]measurement{},
	}
	// The benchmarks run in a fixed order; a signal stops the sequence at
	// the next boundary and whatever finished is still flushed below.
	for _, s := range specs {
		if ctx.Err() != nil {
			rec.Interrupted = true
			break
		}
		rec.Benchmarks[s.key] = s.bench()
	}

	if err := flushRecord(w, *out, rec); err != nil {
		return err
	}
	if rec.Interrupted {
		return fmt.Errorf("interrupted after %d of %d benchmarks (partial record flushed): %w",
			len(rec.Benchmarks), len(specs), ctx.Err())
	}
	return nil
}

// benchSpec is one keyed benchmark in the run sequence.
type benchSpec struct {
	key   string
	bench func() measurement
}

// parseCSVInt64s splits a comma-separated list of positive integers.
func parseCSVInt64s(spec string) ([]int64, error) {
	var out []int64
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list entry %q (want a positive integer)", field)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", spec)
	}
	return out, nil
}

// defaultScaleProcs is the GOMAXPROCS axis when -scale-procs is empty:
// powers of two up to NumCPU, plus NumCPU itself.
func defaultScaleProcs() []int64 {
	ncpu := int64(runtime.NumCPU())
	var out []int64
	for p := int64(1); p < ncpu; p *= 2 {
		out = append(out, p)
	}
	return append(out, ncpu)
}

// packedScaleSpecs builds the GOMAXPROCS × n × shards benchmark matrix of
// the packed-scale suite. Each cell pins GOMAXPROCS before timing (the
// recorded key carries the value, so one record can hold the whole sweep).
// Shard counts a population cannot satisfy (a shard must own at least one
// whole bitset word) are skipped.
func packedScaleSpecs(ctx context.Context, procsCSV, nsCSV, shardsCSV string, budget time.Duration) ([]benchSpec, error) {
	procs := defaultScaleProcs()
	if procsCSV != "" {
		var err error
		if procs, err = parseCSVInt64s(procsCSV); err != nil {
			return nil, fmt.Errorf("-scale-procs: %w", err)
		}
	}
	ns, err := parseCSVInt64s(nsCSV)
	if err != nil {
		return nil, fmt.Errorf("-scale-ns: %w", err)
	}
	for _, n := range ns {
		if n < 4 {
			return nil, fmt.Errorf("-scale-ns: population %d too small", n)
		}
	}
	shardAxis := []int64{1, int64(runtime.NumCPU())}
	if shardsCSV != "" {
		if shardAxis, err = parseCSVInt64s(shardsCSV); err != nil {
			return nil, fmt.Errorf("-scale-shards: %w", err)
		}
	}

	var specs []benchSpec
	for _, p := range procs {
		for _, n := range ns {
			variants := []struct {
				name string
				opts engine.AgentOptions
			}{
				{"packed", engine.AgentOptions{}},
				{"chunked", engine.AgentOptions{Chunked: true}},
			}
			for _, s := range shardAxis {
				if s > int64(engine.MaxPackedShards(n)) {
					continue
				}
				for _, v := range variants {
					p, n, s, opts := int(p), n, int(s), v.opts
					opts.Shards = s
					key := fmt.Sprintf("packed-scale/%s/p=%d/shards=%d/n=%d", v.name, p, s, n)
					specs = append(specs, benchSpec{key, func() measurement {
						runtime.GOMAXPROCS(p)
						return benchScaleCell(ctx, n, opts, budget)
					}})
				}
			}
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("packed-scale matrix is empty (every shard count exceeds n/64 words?)")
	}
	return specs, nil
}

// benchScaleCell times one packed-scale matrix cell — full two-round runs
// of the Minority(3) trap instance — and derives the agent-rounds/sec
// throughput from it.
func benchScaleCell(ctx context.Context, n int64, opts engine.AgentOptions, budget time.Duration) measurement {
	cfg := engine.Config{
		N:         n,
		Rule:      protocol.Minority(3),
		Z:         1,
		X0:        n / 2,
		MaxRounds: 2,
	}
	g := rng.New(1)
	var rounds int64
	m := timeIt(ctx, budget, func(iters int) {
		for i := 0; i < iters; i++ {
			res, err := engine.RunAgents(cfg, opts, g)
			if err != nil {
				panic(err)
			}
			rounds = res.Rounds
		}
	})
	if m.NsPerOp > 0 {
		m.AgentRoundsPerSec = float64(n) * float64(rounds) / m.NsPerOp * 1e9
	}
	return m
}

// fabricScaleSpecs builds the workers × partitions matrix of the
// fabric-scale suite: each cell stands up an in-process lease board
// (the same fabric.Board the HTTP coordinator serves), lets W worker
// goroutines pull, compute and complete partitions of the sweep, and
// times the whole lease-compute-merge cycle. The first cell's merged
// bytes become the reference every later cell must match — the suite
// measures throughput only over runs it can prove correct.
func fabricScaleSpecs(ctx context.Context, workersCSV string, partitions int, expsCSV string) ([]benchSpec, error) {
	workerAxis, err := parseCSVInt64s(workersCSV)
	if err != nil {
		return nil, fmt.Errorf("-fabric-workers: %w", err)
	}
	if partitions < 1 {
		return nil, fmt.Errorf("-fabric-partitions: %d partitions", partitions)
	}
	spec := fabric.SweepSpec{Exps: strings.Split(expsCSV, ","), Seed: 2024, Quick: true, SimWorkers: 1}
	if _, err := spec.Experiments(); err != nil {
		return nil, fmt.Errorf("-fabric-exp: %w", err)
	}
	var refMerged []byte // cells run sequentially; the first one sets it
	var specs []benchSpec
	for _, w := range workerAxis {
		w := int(w)
		key := fmt.Sprintf("fabric-scale/workers=%d/parts=%d", w, partitions)
		specs = append(specs, benchSpec{key, func() measurement {
			m, merged := benchFabricCell(ctx, spec, w, partitions)
			if ctx.Err() != nil {
				return m
			}
			if refMerged == nil {
				refMerged = merged
			} else if !bytes.Equal(merged, refMerged) {
				panic(fmt.Sprintf("fabric-scale %s: merged journal differs from the first cell's — the fabric lost byte identity", key))
			}
			return m
		}})
	}
	return specs, nil
}

// benchFabricCell runs one distributed sweep with w worker goroutines
// over an in-process lease board and returns the timing plus the merged
// journal bytes. Long-TTL leases keep expiry re-issue out of the
// measurement; steals still happen whenever workers outnumber the
// remaining partitions, and are reported.
func benchFabricCell(ctx context.Context, spec fabric.SweepSpec, w, partitions int) (measurement, []byte) {
	board, err := fabric.NewBoard(partitions, time.Hour)
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "bitbench-fabric-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	var (
		mu      sync.Mutex // board and shard-path bookkeeping
		paths   []string
		wg      sync.WaitGroup
		workErr error
	)
	fail := func(err error) {
		mu.Lock()
		if workErr == nil {
			workErr = err
		}
		mu.Unlock()
	}
	start := time.Now() //bitlint:wallclock benchmark timing measures the host, not the simulation
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", i)
			for ctx.Err() == nil {
				mu.Lock()
				//bitlint:wallclock lease bookkeeping is bench harness state; simulation results never read it
				status, lease := board.Acquire(name, time.Now())
				mu.Unlock()
				switch status {
				case fabric.Granted:
					path := filepath.Join(dir, fmt.Sprintf("%s-shard-%d.jsonl", name, lease.Shard.Index))
					if _, err := fabric.RunShard(ctx, spec, lease.Shard, path, false, nil); err != nil {
						if ctx.Err() == nil {
							fail(fmt.Errorf("worker %s shard %s: %w", name, lease.Shard, err))
						}
						return
					}
					mu.Lock()
					paths = append(paths, path)
					_, _, cerr := board.Complete(lease.ID)
					mu.Unlock()
					if cerr != nil {
						fail(fmt.Errorf("worker %s complete %s: %w", name, lease.ID, cerr))
						return
					}
				case fabric.Wait:
					time.Sleep(time.Millisecond)
				default: // Drained
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if workErr != nil {
		panic(workErr)
	}
	if ctx.Err() != nil {
		return measurement{}, nil
	}

	srcs := make([]sim.MergeSource, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			panic(err)
		}
		srcs[i] = sim.MergeSource{Name: filepath.Base(p), Data: data}
	}
	var merged bytes.Buffer
	stats, err := sim.MergeJournals(&merged, srcs)
	if err != nil {
		panic(fmt.Errorf("fabric-scale merge: %w", err))
	}
	wall := time.Since(start) //bitlint:wallclock benchmark timing measures the host, not the simulation
	m := measurement{
		NsPerOp: float64(wall.Nanoseconds()) / float64(stats.Entries),
		Ops:     int64(stats.Entries),
		Steals:  int64(board.Stats().Steals),
	}
	if wall > 0 {
		m.TasksPerSec = float64(stats.Entries) / wall.Seconds()
	}
	return m, merged.Bytes()
}

// flushRecord appends the record to the trajectory file (or stdout) and
// prints the human summary.
func flushRecord(w io.Writer, out string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if out == "-" {
		fmt.Fprintln(w, string(line))
		return nil
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(f, string(line)); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "appended %d benchmarks to %s (gomaxprocs %d)\n", len(rec.Benchmarks), out, rec.GoMaxProcs)
	return nil
}

// timeIt runs f(iters) in growing batches until the cumulative wall time
// reaches the budget or ctx ends, then reports the amortized
// per-iteration cost. A cancelled window is shorter but still a valid
// amortized measurement.
func timeIt(ctx context.Context, budget time.Duration, f func(iters int)) measurement {
	var (
		total time.Duration
		ops   int64
		batch = 1
	)
	for total < budget {
		start := time.Now() //bitlint:wallclock benchmark timing measures the host, not the simulation
		f(batch)
		total += time.Since(start) //bitlint:wallclock benchmark timing measures the host, not the simulation
		ops += int64(batch)
		if ctx.Err() != nil {
			break
		}
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return measurement{NsPerOp: float64(total.Nanoseconds()) / float64(ops), Ops: ops}
}
