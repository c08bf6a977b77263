#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash rbacperf/run.sh --workload hot-reads --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/go-tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/go-tmp" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -C "$here" -o "$out/rbacperf" .
export CARGO_TARGET_DIR="$out"
exec "$out/rbacperf" "$@"
