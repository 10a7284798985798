#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# The package lives in the repository's module, so the build needs the
# whole checkout. Everything the go command writes (build cache, module
# cache, its own configuration) is pointed into .bench_build/ at the root
# of the checkout; the program runs from that root and writes only
# benchmark/out/ there, and only in a traced run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
cd "$root"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/tcbench" ./benchmark
exec "$build/tcbench" "$@"
