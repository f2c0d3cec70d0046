#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#	bash benchmark/run.sh --workload gridd-repl --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and every
# file the benchmark writes stay under .bench_build/ there. Outside a full
# checkout (no module at the root) the build fails and so does the script.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
