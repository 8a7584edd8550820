#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# The build cache and binary live under .bench_build/ in the checkout,
# and the benchmark replaces this shell (exec), so one OS process does
# all the work and nothing outlives the invocation.
#
#   bash perfbench/run.sh --workload compiled-kernels --seed 1 --seconds 20 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(dirname "$here")/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
