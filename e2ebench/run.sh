#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# runs' data directories all go under .bench_build/ there, so the run
# writes nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters,
# its env file) under .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" --workdir "$out" "$@"
