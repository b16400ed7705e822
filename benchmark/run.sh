#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the toolchain writes — build cache, module path, telemetry —
# is pointed under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local
go -C "$here" build -o "$build/reis-benchmark" .
cd "$root"
exec "$build/reis-benchmark" "$@"
