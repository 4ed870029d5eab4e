#!/usr/bin/env bash
# Builds the benchmark from source and replaces this shell with the binary, so
# the benchmark is one OS process: no daemon is spawned, and nothing outlives a
# killed parent the way `go run`'s child does. Everything the build and the run
# write (binary, build cache, scratch data, traces) lands in benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/gotmp"
# The go command's own writes (build cache, temp files, module path,
# telemetry counters) are pointed into the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
go build -o "$out/ensemfdet-benchmark" ./benchmark
exec "$out/ensemfdet-benchmark" "$@"
