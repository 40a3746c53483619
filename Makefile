# Developer and CI entry points. `make ci` is the gate: tier-1 verify plus
# vet and the race detector over the concurrent packages.

GO ?= go

.PHONY: build test verify fmt-check bench-check vet-race race-packed obs-race serve-race fabric-race vm-race lint lint-fixtures lint-audit lint-baseline ci bench bench-compare fuzz-fault fuzz-vm bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verify (ROADMAP.md).
verify: build test

# Formatting gate: every Go file in the tree is gofmt-clean; lists the
# offenders otherwise.
fmt-check:
	@files=$$(gofmt -l .); test -z "$$files" || { echo "not gofmt-clean:"; echo "$$files"; exit 1; }

# The repo benchmark is its own module (benchmark/go.mod), so `go build
# ./...` never compiles it; vet and test it here so an engine or sim API
# change that breaks it fails CI rather than the next benchmark run.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# Static analysis + race detection on the packages that spawn goroutines
# or are shared across them (the sharded bitset engine, the Monte-Carlo
# runner, the fault schedules shared by replicas, and the AdoptCache
# guard).
vet-race:
	$(GO) vet ./...
	$(GO) test -race ./internal/sim/ ./internal/engine/ ./internal/fault/ ./internal/protocol/

# Focused race smoke on the sharded bitset engines: the packed and
# chunked rounds fan out one goroutine per shard over a shared pair of
# bitsets (one writer per word by construction), and this runs exactly the
# tests that exercise those fan-outs under -race. vet-race already covers
# the whole engine package; this filter keeps a fast signal for the
# word-ownership invariant itself, and for the Probe contract that no
# shard goroutine calls the run's probe (TestProbeSingleGoroutine).
race-packed:
	$(GO) test -race -run 'TestPackedSharded|TestPackedDeterministic|TestChunked|TestShardedDeterministic|TestRunAgentsReplicas|TestSeedDeterminismUnderFaults/sharded-(packed|chunked)|TestProbeSingleGoroutine' ./internal/engine/

# Observability layer under the race detector: the shared metrics
# registry, the span writer, and the probe/observer wiring through the
# Monte-Carlo runner (obs_integration_test exercises sim.Run with a
# probe attached across worker goroutines under an active fault
# schedule). The second line repeats the fold tests ten times: a private
# Metrics folded while its writers run, bitspreadd's per-worker job
# metrics folded into /metrics at job end and mid-job, the event hub's
# queue handoff and once-only drop booking, and a stream that is
# subscribed by the time its client holds the headers.
obs-race:
	$(GO) test -race ./internal/obs/ ./internal/trace/ ./internal/sim/
	$(GO) test -race -count=10 -run 'TestMetricsFold|TestEngineMetricsFoldExactly|TestMetricsScrapeSeesRunningJob|TestHub|TestEventStream' ./internal/obs/ ./internal/serve/

# Simulation service under the race detector: the bitspreadd serving
# layer (admission control, worker pool, stream hubs, drain/shutdown)
# plus the subprocess SIGKILL/SIGTERM end-to-end proofs in
# cmd/bitspreadd.
serve-race:
	$(GO) test -race ./internal/serve/ ./cmd/bitspreadd/

# Distributed sweep fabric under the race detector: the lease board and
# shard runner, the journal partition/merge layer (exclusive locks,
# torn-tail recovery, byte-identical merges), the bitsweep
# -partition/-join CLI path, and the coordinator/pull-worker protocol in
# internal/serve and cmd/bitspreadd — including the real-subprocess
# SIGKILL + re-lease byte-identity proof.
fabric-race:
	$(GO) test -race ./internal/fabric/ ./internal/serve/
	$(GO) test -race -run 'TestJournal|TestMerge|TestRunContextPartition' ./internal/sim/
	$(GO) test -race -run 'TestRunFabric|TestRunJoin|TestRunPartition' ./cmd/bitsweep/
	$(GO) test -race -run 'TestFabricWorker|TestBadFlags' ./cmd/bitspreadd/

# Repo-specific static contracts (DESIGN.md §11, §15): bitlint
# machine-checks the determinism, probability-domain, validate-before-work,
# whole-program taint, cancellation, crash-safety, and atomic-mix
# invariants that `go vet` cannot see, over every package including cmd/.
# Zero unsuppressed diagnostics is the bar; every suppression carries a
# written justification.
lint:
	$(GO) run ./cmd/bitlint ./...

# Anti-vacuity gate for the lint suite itself: the `// want` fixture
# packages under internal/analysis/testdata prove each analyzer still
# fires on seeded violations and stays quiet on the sanctioned idioms,
# and the cmd/bitlint seeded-module tests prove the CLI surfaces every
# analyzer family end to end.
lint-fixtures:
	$(GO) test -run 'Fixtures|SuiteShape|Seeded|JSON|Baseline|SuppressionAudit' ./internal/analysis/ ./cmd/bitlint/

# Suppression ledger: list every //bitlint: justification in the tree and
# fail on any directive with an empty reason.
lint-audit:
	$(GO) run ./cmd/bitlint -suppression-audit ./...

# Snapshot the current unsuppressed findings (sorted, line-per-finding)
# so a tree with known debt can adopt the suite and still block
# regressions via `bitlint -baseline lint-baseline.txt ./...`.
lint-baseline:
	$(GO) run ./cmd/bitlint -write-baseline lint-baseline.txt ./...

# Protocol VM and evolutionary search under the race detector: the
# registry in internal/serve shares compiled programs across request
# goroutines, and evolve's evaluator fans simulation batches out over
# sim workers — both must hold under -race alongside the VM itself.
vm-race:
	$(GO) test -race ./internal/vm/ ./internal/evolve/ ./cmd/bitevolve/

# Fuzz smoke: every schedule the validator accepts must uphold the
# Perturber contracts (counts in range, source slot untouched).
fuzz-fault:
	$(GO) test -fuzz=FuzzSchedule -fuzztime=10s -run '^$$' ./internal/fault/

# Fuzz smoke for the bytecode VM: compiled builtins must agree with their
# float references on every (ell, seed) draw, and arbitrary bytes must
# never crash the validator/evaluator pair.
fuzz-vm:
	$(GO) test -fuzz=FuzzVMEquivalence -fuzztime=10s -run '^$$' ./internal/vm/
	$(GO) test -fuzz=FuzzProgramTotality -fuzztime=10s -run '^$$' ./internal/vm/

# Bench smoke: run each engine micro-benchmark once (the agent-engine
# scaling cells, and the exported count and sequential steps, which share
# the bodies' step functions) and each fabric worker-count cell, whose
# merged journal must equal the single-process reference, so a broken
# benchmark body fails CI rather than the next perf run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRunAgents|BenchmarkStepCount|BenchmarkSequentialStep|BenchmarkEngineAblation|BenchmarkFabricWorkers' -benchtime 1x . ./internal/serve/

ci: verify fmt-check bench-check vet-race race-packed obs-race serve-race fabric-race vm-race lint lint-fixtures fuzz-fault fuzz-vm bench-smoke

# Full experiment benchmarks (quick sizes; BITSPREAD_FULL=1 for the sizes
# reported in EXPERIMENTS.md).
bench:
	$(GO) test -bench . -benchtime 1x .

# Paired comparison of two record files written by the repo benchmark
# (bash benchmark/run.sh --workload W --seed S ... > FILE): medians,
# quartiles, pairs won, and regressions beyond each metric's bound in
# BENCHMARK.json. Not part of `ci`. Usage:
#   make bench-compare OLD=parent.jsonl NEW=change.jsonl
bench-compare:
	bash benchmark/run.sh -compare $(OLD) $(NEW)
