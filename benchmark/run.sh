#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument is passed through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -suite layers
#   bash benchmark/run.sh -compare old.jsonl new.jsonl
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
(cd "$here" && go build -o "$build/spreadbench" .)
exec "$build/spreadbench" "$@"
