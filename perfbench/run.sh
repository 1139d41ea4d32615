#!/usr/bin/env bash
# Builds the benchmark harness and the experiments CLI from this checkout
# into .bench_build, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload repro-cold|fleet-join|fleet-resume \
#        --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
(cd "$root" && go build -o "$build/experiments" ./cmd/experiments)
exec "$build/perfbench" -experiments "$build/experiments" -work "$build/work" "$@"
