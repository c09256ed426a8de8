#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Everything the build leaves behind — Go's build cache
# included — stays in .bench_build inside the checkout, so the command
# neither needs nor touches anything outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
