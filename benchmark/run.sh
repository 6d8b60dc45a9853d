#!/usr/bin/env bash
# Builds the benchmark and the two daemons it drives (gpowd, gpowfleet)
# from this checkout's sources, then runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload sim-suite --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the current directory: build cache, binaries, daemon
# state and span files.
set -euo pipefail

if [ ! -f benchmark/go.mod ] || [ ! -f go.mod ]; then
    echo "run.sh: run from the repository root (needs go.mod and benchmark/go.mod)" >&2
    exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C benchmark -o "$build/bin/" . gpusimpow/cmd/gpowd gpusimpow/cmd/gpowfleet
exec "$build/bin/benchmark" "$@"
