#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout's build directory and runs it with the given flags.
#
#   bash benchmark/run.sh --workload serve_light --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh            # every workload, untraced then traced
#
# Everything the build writes (compile cache, temporary files, the binary)
# stays under the build directory, .bench_build unless CARGO_TARGET_DIR or
# RELM_BENCH_BUILD_DIR names another.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${RELM_BENCH_BUILD_DIR:-${CARGO_TARGET_DIR:-.bench_build}}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

export RELM_BENCH_BUILD_DIR="$build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache" # never filled: the module needs nothing but the repository
export GOTOOLCHAIN=local
export GOWORK=off

# go build is a no-op when nothing changed; the cache makes it quick.
(cd "$here" && go build -o "$build/relm-benchmark" .)
exec "$build/relm-benchmark" "$@"
