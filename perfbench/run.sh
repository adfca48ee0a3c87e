#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload rmat-batch --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) goes
# under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
# The workloads run at the Go defaults: GOMAXPROCS = nproc, GOGC 100.
unset GOGC GOMAXPROCS GOMEMLIMIT GODEBUG
go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
