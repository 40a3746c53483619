// Command spreadbench is the repository's benchmark. It times the paths
// users run end to end — an experiment sweep, a distributed fabric sweep,
// the agent engines, and the bitspreadd service under fresh and repeated
// jobs — checks every output, and splits each path into its layers.
//
// One run measures one workload in a child process (spreadbench re-execs
// itself, and kills the child at a hard deadline), so set-up time and
// resident memory belong to that workload. A child that is killed or exits
// with an error still yields a record, counted as one failed operation, and
// the command then exits 1. Operation latencies are reported in units of a
// reference kernel timed around each operation (see ref.go); the record
// keeps them in milliseconds too. The last line of standard output is
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// with the end-to-end metrics, or with -trace 1 the per-layer metrics; the
// line before it is the full record with the host fingerprint. Run it from
// the repository root:
//
//	bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload service-fresh --trace 1 --spans spans.jsonl
//	bash benchmark/run.sh -suite e2e                     # every workload in turn
//	bash benchmark/run.sh -suite layers                  # every layer cell
//	bash benchmark/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 5
	// childSlack is how long a child may run beyond its timed window
	// (set-ups, checks, layer cells) before it is killed.
	childSlack = 120 * time.Second
	// maxChildTime bounds a child's whole life.
	maxChildTime = 170 * time.Second
	// scratchDir holds every file a run writes, relative to the working
	// directory.
	scratchDir = ".bench_build"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	suite    string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
	out      string
	child    bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spreadbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	fs.StringVar(&o.suite, "suite", "e2e", "e2e (workloads) or layers (every layer cell)")
	fs.StringVar(&o.workload, "workload", "", "workload to run (empty: every workload in turn)")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&traceN, "trace", 0, "1 traces the workload and reports the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1, write the spans as JSON lines to this file")
	fs.StringVar(&o.out, "out", "-", "also append each record to this file (- for standard output only)")
	fs.BoolVar(&o.child, "child", false, "run the workload in this process (the re-exec target)")
	compare := fs.Bool("compare", false, "compare two record files: -compare OLD NEW (bounds from ./BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "spreadbench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two record files: OLD NEW"))
		}
		if err := runCompare(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if traceN != 0 && traceN != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", traceN))
	}
	o.trace = traceN == 1
	if o.seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: want at least 1", o.seconds))
	}
	switch o.suite {
	case "layers":
		cells, err := runCells(ctx, scratchDir)
		if err != nil {
			return fail(err)
		}
		rec := layersRecord(cells)
		if err := writeRecord(stdout, o.out, rec); err != nil {
			return fail(err)
		}
		return 0
	case "e2e":
	default:
		return fail(fmt.Errorf("unknown suite %q (want e2e or layers)", o.suite))
	}

	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		if _, ok := workloadByName(name); !ok {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
	}
	if o.child {
		w, _ := workloadByName(o.workload)
		rec, err := runWorkload(ctx, w, o, fullSizes, scratchDir, stderr)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	deadline := min(time.Duration(o.seconds)*time.Second+childSlack, maxChildTime)
	return runSuite(ctx, exe, names, o, deadline, stdout, stderr)
}

// runSuite runs each named workload in a child of exe and writes its
// record. A workload whose child fails still gets its (failed) record and
// the rest still run; the exit code is then 1.
func runSuite(ctx context.Context, exe string, names []string, o options, deadline time.Duration, stdout, stderr io.Writer) int {
	code := 0
	for _, name := range names {
		o.workload = name
		rec, err := runChild(ctx, exe, o, deadline, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "spreadbench:", err)
			rec = failedRecord(o, err)
			code = 1
		}
		if err := writeRecord(stdout, o.out, rec); err != nil {
			fmt.Fprintln(stderr, "spreadbench:", err)
			return 1
		}
	}
	return code
}

// runChild re-execs exe for one workload and kills it at its deadline:
// some paths ignore cancellation, so only a kill bounds a run.
func runChild(ctx context.Context, exe string, o options, deadline time.Duration, stderr io.Writer) (record, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	traceN := 0
	if o.trace {
		traceN = 1
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(traceN), "-spans", o.spans)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	err := cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		return record{}, fmt.Errorf("workload %s killed at its %s deadline", o.workload, deadline)
	}
	if err != nil {
		return record{}, fmt.Errorf("workload %s: %w", o.workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return record{}, fmt.Errorf("workload %s: child output: %w", o.workload, err)
	}
	return rec, nil
}

// failedRecord stands for a workload whose child produced no record: one
// attempted operation, failed, with no metrics.
func failedRecord(o options, err error) record {
	return record{
		Kind: "e2e", Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: readHost(),
		Result: result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}},
		Checks: []string{err.Error()},
	}
}

// sample is one finished operation.
type sample struct {
	at     time.Duration // start, from the start of the window
	dur    time.Duration
	traced bool
	err    error
}

// runWorkload sets the workload up setupReps times, runs the last set-up
// in a closed loop for the timed window, checks the outputs, and returns
// the record. A traced run alternates untraced and traced slices of the
// window, so the tracing overhead is measured in the same run.
func runWorkload(ctx context.Context, w workload, o options, sz sizes, base string, stderr io.Writer) (record, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return record{}, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return record{}, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	rec := record{Kind: "e2e", Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: readHost()}
	var s session
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		sess, err := w.open(ctx, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), o.seed, sz, tr)
		if err != nil {
			return record{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		rec.Setups = append(rec.Setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			sess.close()
		} else {
			s = sess
		}
	}
	defer s.close()

	win, err := measure(ctx, s, w.clients, time.Duration(o.seconds)*time.Second, tr)
	if err != nil {
		return record{}, err
	}
	// plain and traced hold latencies in ms, plainRef and tracedRef the same
	// latencies in reference-kernel times.
	var plain, traced, plainRef, tracedRef []float64
	for _, sm := range win.samples {
		rec.Result.Attempted++
		ms := float64(sm.dur.Nanoseconds()) / 1e6
		switch {
		case sm.err != nil:
			rec.Result.Failed++
			if len(rec.Checks) < 10 {
				rec.Checks = append(rec.Checks, sm.err.Error())
			}
		case sm.traced:
			traced = append(traced, ms)
			tracedRef = append(tracedRef, ms/win.refMSAround(sm))
		default:
			plain = append(plain, ms)
			plainRef = append(plainRef, ms/win.refMSAround(sm))
		}
	}
	rec.Result.Attempted++
	if err := s.verify(ctx); err != nil {
		rec.Result.Failed++
		rec.Checks = append(rec.Checks, err.Error())
	}
	rec.Result.Correct = rec.Result.Failed == 0
	if len(plain) == 0 {
		return record{}, fmt.Errorf("%s: no operation succeeded: %v", w.name, rec.Checks)
	}
	rec.Samples = len(plain)
	rec.LatencyMS = map[string]float64{}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		rec.LatencyMS[fmt.Sprintf("p%g", 100*q)] = percentile(plain, q)
	}

	rec.OpsPerS = float64(len(plain)+len(traced)) / (win.elapsed - win.paused).Seconds()
	var refMS, rss []float64
	for _, r := range win.refs {
		refMS = append(refMS, float64(r.dur.Nanoseconds())/1e6)
		rss = append(rss, r.rssMB)
	}
	rec.RefMS = median(refMS)

	m := map[string]metric{}
	if !o.trace {
		m["op_latency_ref"] = metric{mean(plainRef), "ref"}
		m["rss_mb"] = metric{median(rss), "MB"}
		m["setup_s"] = metric{median(rec.Setups), "s"}
	} else {
		if len(traced) == 0 {
			return record{}, fmt.Errorf("%s: no traced operation succeeded", w.name)
		}
		acc := tr.account()
		acc.report(stderr, w.name)
		rec.Layers = acc.layers()
		m["trace.overhead_pct"] = metric{100 * (mean(tracedRef)/mean(plainRef) - 1), "%"}
		m["trace.unaccounted_pct"] = metric{acc.unaccountedPct(), "%"}
		if o.spans != "" {
			if err := tr.writeSpans(o.spans); err != nil {
				return record{}, err
			}
		}
		cells, err := runCells(ctx, dir)
		if err != nil {
			return record{}, err
		}
		rec.Cells = cells
		for name, c := range cells {
			m[name] = metric{c.Median, c.Unit}
		}
	}
	rec.Result.Metrics = m
	fmt.Fprintf(stderr, "%s: %d ops (%d traced), %d failed, latency ms %.4v, setups %.3v s\n",
		w.name, len(plain)+len(traced), len(traced), rec.Result.Failed, rec.LatencyMS, rec.Setups)
	return rec, nil
}

// window is what one timed window measured.
type window struct {
	samples []sample
	// elapsed runs from the start until the last operation finished;
	// paused is the part of it spent in reference runs.
	elapsed, paused time.Duration
	refs            []refRun
}

// refRun is one run of the reference kernel, with the resident memory read
// at the same pause.
type refRun struct {
	at, dur time.Duration
	rssMB   float64
}

// refMSAround is the mean time, in ms, of the reference runs just before
// and just after the middle of operation sm (the one nearest, at an end of
// the window). The host's speed drifts within seconds, so each operation is
// measured against the reference taken around it.
func (w window) refMSAround(sm sample) float64 {
	mid := sm.at + sm.dur/2
	i := sort.Search(len(w.refs), func(i int) bool { return w.refs[i].at >= mid })
	var sum time.Duration
	n := 0
	for _, j := range []int{i - 1, i} {
		if j >= 0 && j < len(w.refs) {
			sum += w.refs[j].dur
			n++
		}
	}
	return float64(sum.Nanoseconds()) / 1e6 / float64(n)
}

// traceSlice is how long a traced run traces, or leaves untraced, the
// operations it starts before switching. The host's speed drifts within
// seconds, so short slices keep the two sides measured under the same
// conditions.
const traceSlice = 500 * time.Millisecond

// measure runs a closed loop of clients callers (0: NumCPU) until the
// window closes; an operation started before the deadline runs to the
// end. Every refEvery it lets the operations in flight finish, holds new
// ones, and runs the reference kernel. With a tracer, operations started
// in every other traceSlice are traced.
func measure(ctx context.Context, s session, clients int, length time.Duration, tr *tracer) (window, error) {
	if clients <= 0 {
		clients = runtime.NumCPU()
	}
	var (
		w    window
		mu   sync.Mutex
		gate sync.RWMutex // operations hold it shared, reference runs exclusively
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(length)
	refErr := make(chan error, 1)
	go func() {
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				refErr <- ctx.Err()
				return
			case <-tick.C:
			}
			if !time.Now().Before(deadline) {
				refErr <- nil
				return
			}
			gate.Lock()
			at := time.Now()
			dur := refKernel()
			rss, err := rssMB()
			w.refs = append(w.refs, refRun{at: at.Sub(start), dur: dur, rssMB: rss})
			w.paused += time.Since(at)
			gate.Unlock()
			if err != nil {
				refErr <- err
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				gate.RLock()
				t0 := time.Now()
				if !t0.Before(deadline) {
					gate.RUnlock()
					return
				}
				var optr *tracer
				if tr != nil && t0.Sub(start)/traceSlice%2 == 1 {
					optr = tr
				}
				err := s.op(ctx, int(next.Add(1)-1), optr)
				sm := sample{at: t0.Sub(start), dur: time.Since(t0), traced: optr != nil, err: err}
				gate.RUnlock()
				mu.Lock()
				w.samples = append(w.samples, sm)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	if err := <-refErr; err != nil {
		return w, err
	}
	if len(w.refs) == 0 {
		return w, errors.New("the window ended before the first reference run")
	}
	return w, nil
}
