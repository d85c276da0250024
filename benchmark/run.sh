#!/usr/bin/env bash
# The performance driver's entry point (BENCHMARK.json's command): build the
# harness from source inside the checkout, then run it with the driver's
# arguments. Everything the build writes — binary, Go build cache, module
# and config directories — stays under .bench_build/ in the checkout.
# Developers can skip this and `go run ./benchmark` directly.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry"
# Telemetry off: with a fresh config directory the go command would otherwise
# detach a child of itself (its once-a-day telemetry report) that outlives
# this script, and the driver allows no process to survive a run.
echo off > "$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
GOFLAGS= GOTOOLCHAIN=local GOWORK=off \
	go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
