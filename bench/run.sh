#!/bin/bash
# BENCHMARK.json's command: build the harness inside the checkout and run it.
# The go tool's cache, scratch space and per-user files (its env file and
# telemetry counters live under the config directory) are pointed into
# bench/out, so a run reads and writes nothing outside the checkout; the first
# build in a fresh checkout compiles the standard library too (about half a
# minute on two cores), later ones are no-ops. With a go cache of your own,
# `go run -C bench . <flags>` does the same.
set -eu
cd "$(dirname "$0")"
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" XDG_CONFIG_HOME="$PWD/out/config"
export GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go build -o out/bin/bench .
exec out/bin/bench "$@"
