// Command bitsweep runs the reproduction harness: every experiment in the
// paper-vs-measured index (DESIGN.md §4, EXPERIMENTS.md) or a selected
// subset, printing each experiment's table and verdict to stdout and its
// wall time to stderr (`make reproduce` diffs the full sweep's stdout
// with results_full.txt).
//
// Long sweeps are interruptible and resumable: SIGINT/SIGTERM (and
// -timeout) cancel the sweep's replicas, and with -journal every finished
// replica is checkpointed to a JSONL file, so re-running with -resume
// picks up exactly where the sweep stopped and lands on the same final
// tables.
//
// Examples:
//
//	bitsweep -list
//	bitsweep -exp T2
//	bitsweep -exp all -quick
//	bitsweep -exp F4 -csv > f4.csv
//	bitsweep -exp all -journal sweep.jsonl          # ^C-safe
//	bitsweep -exp all -journal sweep.jsonl -resume  # continue after ^C
//
// Sweeps also distribute across machines with zero coordination
// (internal/fabric): each worker runs one shard of the deterministic
// (task, replica) partition, and the shard journals merge into a
// checkpoint byte-identical to a single-process run:
//
//	bitsweep -exp all -partition 0/2 -journal shard0.jsonl   # worker 1
//	bitsweep -exp all -partition 1/2 -journal shard1.jsonl   # worker 2
//	bitsweep -exp all -join 'shard*.jsonl' -journal merged.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"bitspread/internal/experiments"
	"bitspread/internal/fabric"
	"bitspread/internal/obs"
	"bitspread/internal/sim"
	"bitspread/internal/table"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bitsweep:", err)
		os.Exit(1)
	}
}

// run executes one bitsweep invocation. Tables, verdicts and banners go to
// w, which therefore depends only on the seed, the experiment selection
// and -quick; each experiment's wall time goes to the progress writer.
func run(ctx context.Context, args []string, w, progress io.Writer) (err error) {
	fs := flag.NewFlagSet("bitsweep", flag.ContinueOnError)
	var prof obs.Profile
	prof.Register(fs)
	var (
		metricsPath = fs.String("metrics", "", `write a Prometheus-style metrics snapshot of the sweep at exit ("-": stdout)`)
		spansPath   = fs.String("spans", "", "write run-level JSONL spans (replica lifecycle, checkpoints, recoveries) to this file")
		expSpec     = fs.String("exp", "all", "experiment ID (e.g. T2, F4) or 'all'")
		list        = fs.Bool("list", false, "list experiments and exit")
		quick       = fs.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
		seed        = fs.Uint64("seed", 2024, "random seed")
		workers     = fs.Int("workers", 0, "simulation worker goroutines (0: GOMAXPROCS)")
		csv         = fs.Bool("csv", false, "emit CSV instead of ASCII tables")
		md          = fs.Bool("md", false, "emit a Markdown paper-vs-measured table (the EXPERIMENTS.md format)")
		journal     = fs.String("journal", "", "JSONL checkpoint file: every finished replica is flushed here")
		resume      = fs.Bool("resume", false, "load finished replicas from the -journal file instead of recomputing them")
		timeout     = fs.Duration("timeout", 0, "wall-clock budget for the whole sweep (0: none)")
		partition   = fs.String("partition", "", "run one shard i/N of the sweep's (task, replica) space, checkpointing owned replicas to -journal (no tables)")
		join        = fs.String("join", "", "comma-separated shard journals or globs; merge them into -journal and render from the merged checkpoint")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if *resume && *journal == "" {
		return errors.New("-resume needs -journal to know which checkpoint to load")
	}
	if *partition != "" && *join != "" {
		return errors.New("-partition and -join are mutually exclusive: a process either produces one shard or merges finished shards")
	}
	if *partition != "" && *journal == "" {
		return errors.New("-partition needs -journal: the shard's only output is its checkpoint file")
	}
	if *partition != "" && (*spansPath != "" || *metricsPath != "") {
		return errors.New("-partition does not take -spans or -metrics: a shard writes only its checkpoint file")
	}
	if *join != "" && *journal == "" {
		return errors.New("-join needs -journal as the merge destination")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var exps []string
	if *expSpec != "all" {
		exps = strings.Split(*expSpec, ",")
	}
	spec := fabric.SweepSpec{Exps: exps, Seed: *seed, Quick: *quick, SimWorkers: *workers}

	if *partition != "" {
		shard, err := fabric.ParseShard(*partition)
		if err != nil {
			return err
		}
		logf := func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
		stats, err := fabric.RunShard(ctx, spec, shard, *journal, *resume, logf)
		if err != nil {
			return sweepErr("shard "+shard.String(), err, *journal)
		}
		fmt.Fprintf(w, "shard %s: %d replicas checkpointed to %s (%d experiments, %d partial-data errors tolerated)\n",
			shard, stats.Checkpointed, *journal, stats.Experiments, stats.TolerableErrors)
		return nil
	}

	if *join != "" {
		srcs, err := expandJoin(*join)
		if err != nil {
			return err
		}
		stats, err := sim.MergeJournalFiles(*journal, srcs...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "joined %s -> %s\n\n", stats, *journal)
		// Render from the merged checkpoint exactly like -resume: replicas
		// every shard covered are served back, gaps are recomputed.
		*resume = true
	}

	selected, err := spec.Experiments()
	if err != nil {
		return err
	}

	var ckpt *sim.Journal
	if *journal != "" {
		var err error
		ckpt, err = sim.OpenJournal(*journal, *resume)
		if err != nil {
			return err
		}
		defer ckpt.Close()
		if *resume {
			fmt.Fprintf(w, "resuming: %d replicas served from %s\n\n", ckpt.Len(), *journal)
		}
	}

	opts := experiments.Options{Seed: *seed, Workers: *workers, Quick: *quick, Ctx: ctx, Journal: ckpt}

	// Instrumentation: a shared registry feeds both the engine probe and
	// the run observer; spans go to their own JSONL file next to the
	// journal.
	var reg *obs.Registry
	var spans *obs.SpanWriter
	if *metricsPath != "" || *spansPath != "" {
		reg = obs.NewRegistry()
		if *spansPath != "" {
			f, ferr := os.Create(*spansPath)
			if ferr != nil {
				return ferr
			}
			defer f.Close()
			spans = obs.NewSpanWriter(f)
			defer func() {
				if serr := spans.Close(); serr != nil && err == nil {
					err = serr
				}
			}()
		}
		opts.Probe = obs.NewMetrics(reg)
		opts.Observer = obs.NewRunObserver(spans, reg)
		defer func() {
			if merr := obs.WriteSnapshot(reg, *metricsPath, w); merr != nil && err == nil {
				err = merr
			}
		}()
	}

	if *md {
		return writeMarkdown(w, selected, opts)
	}
	for _, e := range selected {
		start := time.Now() //bitlint:wallclock progress reporting only; experiment results never read it
		res, err := e.Run(opts)
		if err != nil {
			return sweepErr(e.ID, err, *journal)
		}
		if *csv {
			if tb, ok := res.Table.(*table.Table); ok {
				if err := tb.WriteCSV(w); err != nil {
					return err
				}
				continue
			}
		}
		fmt.Fprintf(w, "== %s — %s ==\n", e.ID, e.Title)
		fmt.Fprintf(w, "claim: %s\n\n", e.Claim)
		fmt.Fprintln(w, res.Table.String())
		fmt.Fprintf(w, "verdict: %s\n\n", res.Verdict)
		//bitlint:wallclock progress reporting only; experiment results never read it
		fmt.Fprintf(progress, "%s (%.1fs)\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

// expandJoin resolves the -join argument: comma-separated shard paths,
// each either a literal file or a glob. Merging fewer than two literal
// inputs is almost certainly a typo'd single path, so it is rejected
// unless a glob was given (a glob legitimately matches however many
// shards finished).
func expandJoin(spec string) ([]string, error) {
	var paths []string
	hasGlob := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if strings.ContainsAny(part, "*?[") {
			hasGlob = true
			matches, err := filepath.Glob(part)
			if err != nil {
				return nil, fmt.Errorf("-join pattern %q: %w", part, err)
			}
			paths = append(paths, matches...)
		} else {
			paths = append(paths, part)
		}
	}
	if !hasGlob && len(paths) < 2 {
		return nil, fmt.Errorf("-join needs at least two shard files or a glob pattern, got %d input(s)", len(paths))
	}
	if len(paths) == 0 {
		return nil, errors.New("-join matched no shard files")
	}
	sort.Strings(paths)
	return paths, nil
}

// sweepErr wraps an experiment failure; for an interruption it adds the
// resume recipe, since the whole point of the checkpoint is that ^C is
// cheap.
func sweepErr(id string, err error, journal string) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if journal != "" {
			return fmt.Errorf("%s: %w — finished replicas are checkpointed; re-run with -journal %s -resume to continue", id, err, journal)
		}
		return fmt.Errorf("%s: %w — run with -journal FILE to make interruptions resumable", id, err)
	}
	return fmt.Errorf("%s: %w", id, err)
}

// writeMarkdown renders a paper-vs-measured Markdown table, one row per
// experiment — the machine-regenerated core of EXPERIMENTS.md.
func writeMarkdown(w io.Writer, selected []experiments.Experiment, opts experiments.Options) error {
	fmt.Fprintln(w, "| ID | Title | Paper predicts | Measured |")
	fmt.Fprintln(w, "|----|-------|----------------|----------|")
	for _, e := range selected {
		res, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
			e.ID, mdEscape(e.Title), mdEscape(e.Claim), mdEscape(res.Verdict))
	}
	return nil
}

// mdEscape keeps table cells on one line and protects pipes.
func mdEscape(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
