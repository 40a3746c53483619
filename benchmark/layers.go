package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bitspread/internal/engine"
	"bitspread/internal/fabric"
	"bitspread/internal/obs"
	"bitspread/internal/protocol"
	"bitspread/internal/rng"
	"bitspread/internal/serve"
	"bitspread/internal/sim"
)

// A layer cell times one public function of one module in isolation. Each
// repeat returns one value; a cell reports the median and MAD of its
// repeats. The names say which layer and unit they measure.

// cellRepeats is the number of repeats per cell.
const cellRepeats = 7

type cell struct {
	name string
	unit string
	// prepare builds the cell's inputs once and returns one repeat.
	prepare func(dir string) (repeat func() float64)
}

// sink keeps measured results alive so the compiler cannot drop the work.
var sink int64

// perUnit times f and returns nanoseconds per unit of work.
func perUnit(units int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / float64(units)
}

// cells lists every layer cell. The vm module is left out: a rule is
// materialized once per job, so no user path blocks on the VM.
func cells() []cell {
	out := []cell{
		{"rng.fill_uint64_ns_per_word", "ns", func(string) func() float64 {
			buf := make([]uint64, 1<<16)
			g := rng.New(1)
			return func() float64 {
				return perUnit(32*len(buf), func() {
					for i := 0; i < 32; i++ {
						g.FillUint64(buf)
					}
				})
			}
		}},
		{"rng.bounded_ns", "ns", func(string) func() float64 {
			b := rng.NewBounded(1<<20 + 7)
			g := rng.New(2)
			return func() float64 {
				const draws = 1 << 20
				return perUnit(draws, func() {
					for i := 0; i < draws; i++ {
						sink += int64(b.Next(g))
					}
				})
			}
		}},
		{"rng.binomial_ns", "ns", func(string) func() float64 {
			g := rng.New(3)
			return func() float64 {
				const draws = 1 << 16
				return perUnit(draws, func() {
					for i := 0; i < draws; i++ {
						sink += g.Binomial(1<<20, 0.25+float64(i&255)/1024)
					}
				})
			}
		}},
		adoptProbCell("protocol.adopt_prob_ns.ell3", 3),
		adoptProbCell("protocol.adopt_prob_ns.ellsqrt", protocol.SqrtNLogN(1).Of(1<<16)),
		{"protocol.adopt_cache_hit_ns", "ns", func(string) func() float64 {
			c := protocol.NewAdoptCache(protocol.Minority(3), 1<<16)
			for x := int64(0); x < 1024; x++ {
				c.Probs(x)
			}
			return func() float64 {
				const lookups = 1 << 20
				return perUnit(lookups, func() {
					for i := 0; i < lookups; i++ {
						p0, _ := c.Probs(int64(i & 1023))
						sink += int64(p0)
					}
				})
			}
		}},
		countBatchCell("engine.count_batch_step_ns.ell1", 1),
		countBatchCell("engine.count_batch_step_ns.ell3", 3),
		countBatchCell("engine.count_batch_step_ns.ellsqrt", protocol.SqrtNLogN(1).Of(1<<16)),
	}
	for _, n := range []int64{1 << 16, 1 << 20} {
		for _, v := range []struct {
			name string
			opts engine.AgentOptions
		}{
			{"packed", engine.AgentOptions{}},
			{"replicas", engine.AgentOptions{}},
			{"packed-sharded", engine.AgentOptions{Shards: runtime.NumCPU()}},
			{"chunked", engine.AgentOptions{Chunked: true}},
			{"unpacked", engine.AgentOptions{Unpacked: true}},
		} {
			out = append(out, agentRoundCell(fmt.Sprintf("engine.round_ns_per_agent.%s.n%d", v.name, n), n, v.opts, v.name == "replicas"))
		}
	}
	return append(out,
		cell{"engine.probe_overhead_pct", "%", probeOverheadCell},
		cell{"sim.replica_overhead_pct", "%", replicaOverheadCell},
		journalCell("sim.journal_record_us", false, 2000),
		journalCell("sim.journal_record_fsync_us", true, 20),
		cell{"sim.merge_ms_per_mb", "ms", mergeCell},
		cell{"fabric.lease_cycle_us", "us", func(string) func() float64 {
			return func() float64 {
				const parts = 4096
				board, err := fabric.NewBoard(parts, time.Hour)
				if err != nil {
					panic(err)
				}
				now := time.Unix(0, 0)
				return perUnit(parts, func() {
					for i := 0; i < parts; i++ {
						_, lease := board.Acquire("w", now)
						board.Complete(lease.ID)
					}
				}) / 1e3
			}
		}},
		cell{"serve.memory_roundtrip_ms", "ms", roundtripCell},
	)
}

func adoptProbCell(name string, ell int) cell {
	return cell{name, "ns", func(string) func() float64 {
		r := protocol.Minority(ell)
		return func() float64 {
			const evals = 1 << 12
			return perUnit(evals, func() {
				for i := 0; i < evals; i++ {
					sink += int64(1e6 * r.AdoptProb(i&1, float64(i&1023)/1024))
				}
			})
		}
	}}
}

// countBatchCell times StepCountBatch per replica-round over 256 replicas
// sharing one AdoptCache; absorbed replicas restart at n/2.
func countBatchCell(name string, ell int) cell {
	return cell{name, "ns", func(string) func() float64 {
		const n, replicas, rounds = 1 << 16, 256, 64
		cache := protocol.NewAdoptCache(protocol.Minority(ell), n)
		xs := make([]int64, replicas)
		gs := make([]*rng.RNG, replicas)
		for i := range xs {
			xs[i] = n / 2
			gs[i] = rng.New(uint64(i) + 1)
		}
		step := func() {
			for t := 0; t < rounds; t++ {
				engine.StepCountBatch(cache, 1, xs, gs)
				for i, x := range xs {
					if x <= 1 || x >= n-1 {
						xs[i] = n / 2
					}
				}
			}
		}
		step() // fill the cache: the cell times steady-state hits
		return func() float64 { return perUnit(replicas*rounds, step) }
	}}
}

// abba times a and b as a, b, b, a and returns b's excess over a in
// percent, so drift within a repeat cancels.
func abba(a, b func()) float64 {
	a1, b1 := perUnit(1, a), perUnit(1, b)
	b2, a2 := perUnit(1, b), perUnit(1, a)
	return 100 * ((b1+b2)/(a1+a2) - 1)
}

// agentRoundCell times agent-rounds of the trap instance, initialization
// amortized over 8 rounds; "replicas" runs 4 batched replicas.
func agentRoundCell(name string, n int64, opts engine.AgentOptions, batched bool) cell {
	return cell{name, "ns", func(string) func() float64 {
		const rounds = 8
		cfg := trapConfig(n, rounds)
		g := rng.New(5)
		return func() float64 {
			if batched {
				seeds := []uint64{g.Uint64(), g.Uint64(), g.Uint64(), g.Uint64()}
				return perUnit(int(n)*rounds*len(seeds), func() {
					if _, err := engine.RunAgentsReplicas(cfg, opts, seeds); err != nil {
						panic(err)
					}
				})
			}
			return perUnit(int(n)*rounds, func() {
				if _, err := engine.RunAgents(cfg, opts, g); err != nil {
					panic(err)
				}
			})
		}
	}}
}

// probeOverheadCell compares the packed engine at n=2^20 with an obs.Metrics
// probe against a nil probe.
func probeOverheadCell(string) func() float64 {
	plain := trapConfig(1<<20, 8)
	probed := plain
	probed.Probe = obs.NewMetrics(obs.NewRegistry())
	run := func(cfg engine.Config) func() {
		return func() {
			if _, err := engine.RunAgents(cfg, engine.AgentOptions{}, rng.New(9)); err != nil {
				panic(err)
			}
		}
	}
	run(plain)()
	return func() float64 { return abba(run(plain), run(probed)) }
}

// replicaOverheadCell compares sim.Run on one worker against the bare
// batched count engine it wraps, on the same seeds.
func replicaOverheadCell(string) func() float64 {
	task := sim.Task{Name: "overhead", Config: trapConfig(1<<16, 256), Mode: sim.Parallel, Replicas: 64, Seed: 11}
	master := rng.New(task.Seed)
	seeds := make([]uint64, task.Replicas)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	bare := func() {
		if _, err := engine.RunParallelReplicas(task.Config, seeds); err != nil {
			panic(err)
		}
	}
	wrapped := func() {
		if _, err := sim.Run(task, 1); err != nil {
			panic(err)
		}
	}
	bare()
	return func() float64 { return abba(bare, wrapped) }
}

// journalCell times Journal.Record per record, with or without fsync.
func journalCell(name string, fsync bool, records int) cell {
	return cell{name, "us", func(dir string) func() float64 {
		res := engine.Result{Rounds: 123456, Activations: 123456789, FinalCount: 4096, Converged: true}
		path := filepath.Join(dir, name+".jsonl")
		return func() float64 {
			j, err := sim.OpenJournalOpts(path, sim.JournalOptions{Fsync: fsync})
			if err != nil {
				panic(err)
			}
			defer j.Close()
			return perUnit(records, func() {
				for i := 0; i < records; i++ {
					if err := j.Record("task#0123456789abcdef", i, res); err != nil {
						panic(err)
					}
				}
			}) / 1e3
		}
	}}
}

// mergeCell times MergeJournals over two shard journals of about 1 MB
// together, in milliseconds per MB of input.
func mergeCell(string) func() float64 {
	var shards [2]strings.Builder
	for i := 0; i < 8000; i++ {
		fmt.Fprintf(&shards[i%2], `{"task":"T%d#%016x","replica":%d,"seq":%d,"result":{"Converged":true,"Rounds":%d,"Activations":%d,"FinalCount":4096,"HitWrongConsensus":false,"Interrupted":false,"Shards":0}}`+"\n",
			i/64, i/64, i%64, i/64, 1000+i, 4096*(1000+i))
	}
	srcs := []sim.MergeSource{{Name: "a", Data: []byte(shards[0].String())}, {Name: "b", Data: []byte(shards[1].String())}}
	mb := float64(len(srcs[0].Data)+len(srcs[1].Data)) / (1 << 20)
	return func() float64 {
		return perUnit(1, func() {
			if _, err := sim.MergeJournals(io.Discard, srcs); err != nil {
				panic(err)
			}
		}) / 1e6 / mb
	}
}

// roundtripCell times bitspreadd jobs from submit to result against a
// memory-only server: the service path without durability.
func roundtripCell(string) func() float64 {
	next := 0
	return func() float64 {
		srv, err := serve.New(serve.Options{})
		if err != nil {
			panic(err)
		}
		s := &serviceSession{srv: srv, ts: httptest.NewServer(srv.Handler()), client: newClient(1),
			sz: sizes{jobN: 1024, jobReplicas: 1}}
		defer s.close()
		const jobs = 8
		return perUnit(jobs, func() {
			for i := 0; i < jobs; i++ {
				next++
				if _, _, err := s.job(context.Background(), s.spec(uint64(next))); err != nil {
					panic(err)
				}
			}
		}) / 1e6
	}
}

// runCells runs every cell cellRepeats times. A cell whose environment
// fails (a journal that cannot be written, a server that cannot start)
// panics inside its repeat; runCells reports that as the cell's error.
func runCells(ctx context.Context, base string) (stats map[string]cellStat, err error) {
	var current string
	defer func() {
		if r := recover(); r != nil {
			stats, err = nil, fmt.Errorf("cell %s: %v", current, r)
		}
	}()
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "cells-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := map[string]cellStat{}
	for _, c := range cells() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		current = c.name
		repeat := c.prepare(dir)
		vals := make([]float64, cellRepeats)
		for i := range vals {
			vals[i] = repeat()
		}
		out[c.name] = cellStat{Median: median(vals), MAD: mad(vals), Unit: c.unit, Repeats: len(vals)}
	}
	return out, nil
}

// layersRecord wraps the cells as a record whose metrics are the medians.
func layersRecord(cells map[string]cellStat) record {
	rec := record{Kind: "layers", Host: readHost(), Cells: cells,
		Result: result{Correct: true, Attempted: len(cells), Metrics: map[string]metric{}}}
	for name, c := range cells {
		rec.Result.Metrics[name] = metric{c.Median, c.Unit}
	}
	return rec
}
