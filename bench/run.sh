#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh -workload sim-all -seed 1 -seconds 25 -trace 0
#
# Build products and the Go build cache stay in .bench_build/ at the root
# of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"
go -C bench build -o "$build/elag-benchmark" .
exec "$build/elag-benchmark" "$@"
