#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Every build artifact, cache and Go tool state lives
# under .bench_build/ in the directory this is started from (the root of
# a checkout), so a run reads and writes nothing outside it.
#
#   bash perfbench/run.sh --workload sparse-64 --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

go -C "$root/perfbench" build -buildvcs=false -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
