#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it with
# the given arguments, e.g.
#
#   bash cmd/bench/run.sh --workload mobility-fading --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, Go's configuration and all temporary files
# stay under .bench_build at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
# With telemetry in its default "local" mode the go command starts a detached
# sidecar process that outlives the build; turning it off keeps the benchmark
# from leaving any process behind.
printf 'off\n' >"$build/config/go/telemetry/mode"
cd "$root"
go build -o "$build/bench" ./cmd/bench >&2
exec "$build/bench" "$@"
