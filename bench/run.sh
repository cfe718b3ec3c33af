#!/usr/bin/env bash
# The repository's benchmark. Builds cmd/dandelion and the benchmark
# into .bench_build/ and runs it; every argument goes to the benchmark:
#
#   bench/run.sh                      all four workloads, untraced then traced
#   bench/run.sh -workload rpc-small -seed 7 -seconds 20 -trace 1
#   bench/run.sh -calibrate 5         the same-code spread table
#
# See bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out/tmp"
# Everything the build reads or writes stays inside the checkout.
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/dandelion" ./cmd/dandelion
go build -o "$out/bench" ./bench
exec "$out/bench" -server "$out/dandelion" "$@"
