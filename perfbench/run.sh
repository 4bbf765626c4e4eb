#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-warm --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR, when set) in the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
