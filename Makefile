# Developer and CI entry points. `make ci` is the gate: tier-1 verify plus
# vet and the race detector over the concurrent packages.

GO ?= go

.PHONY: build test verify fmt-check bench-check vet vet-386 race lint lint-fixtures lint-audit ci bench bench-compare fuzz-fault fuzz-vm bench-smoke

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

# Static analysis of every package, tests included, for the host and for
# GOARCH=386, so that nothing assumes a 64-bit int (runs natively on an
# amd64 host).
vet:
	$(GO) vet ./...

vet-386:
	GOARCH=386 $(GO) vet ./...

# The race detector over every package that spawns goroutines or is
# shared across them, each raced once: the sharded bitset engine and its
# Probe contract (TestProbeSingleGoroutine), the Monte-Carlo runner's
# worker pool, the fault schedules and AdoptCache shared by replicas,
# the observability layer, the bitspreadd service with its subprocess
# SIGKILL/SIGTERM proofs, the sweep fabric with its bitsweep
# -partition/-join path, and the VM registry and evolutionary search.
# cmd/bitspreadd runs on its own line, after the rest: its subprocess
# drain and kill tests hold a job to fixed budgets (a 120 s drain under
# -race), which other packages' tests running beside it can exceed on a
# 2-vCPU host.
# The third line repeats the fold tests ten times: a private Metrics
# folded while its writers run, bitspreadd's per-worker job metrics
# folded into /metrics at job end and mid-job, the event hub's queue
# handoff and once-only drop booking, and a stream that is subscribed by
# the time its client holds the headers. The fourth repeats the held-wait
# tests twenty times: a first completion closes and replaces the
# coordinator's board-changed channel under its lock while held lease
# requests select on it, and a drain or Close ends them.
race:
	$(GO) test -race ./internal/engine/ ./internal/sim/ ./internal/fault/ ./internal/protocol/ ./internal/obs/ ./internal/trace/ ./internal/serve/ ./internal/fabric/ ./internal/vm/ ./internal/evolve/ ./cmd/bitsweep/ ./cmd/bitevolve/
	$(GO) test -race ./cmd/bitspreadd/
	$(GO) test -race -count=10 -run 'TestMetricsFold|TestEngineMetricsFoldExactly|TestMetricsScrapeSeesRunningJob|TestHub|TestEventStream' ./internal/obs/ ./internal/serve/
	$(GO) test -race -count=20 -run 'TestPullWorkerWaitEndsWithSweep|TestHeldLease' ./internal/serve/

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
	$(GO) test -run 'Fixtures|SuiteShape|Seeded|JSON|SuppressionAudit' ./internal/analysis/ ./cmd/bitlint/

# Suppression ledger: list every //bitlint: justification in the tree and
# fail on any directive with an empty reason.
lint-audit:
	$(GO) run ./cmd/bitlint -suppression-audit ./...

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

ci: verify fmt-check bench-check vet vet-386 race lint lint-fixtures fuzz-fault fuzz-vm bench-smoke

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
