#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark and the daemon it
# drives from source, keeping every build product (Go's build cache
# included) inside the checkout under .bench_build/, then runs the
# benchmark with the arguments given:
#
#   bash bench/run.sh --workload hunt-history --seed 1 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
cd "$here"
go build -o "$build/bench" .
go build -o "$build/threatraptord" threatraptor/cmd/threatraptord
exec "$build/bench" -daemon "$build/threatraptord" "$@"
