#!/usr/bin/env bash
# Builds the benchmark and the simd server from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload figures --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --runs 5
#
# Everything the build and the run leave behind (Go build cache,
# binaries, temporary cache directories, span files) goes under
# .bench_build/ in the current directory, which .gitignore lists.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/simd ] || [ ! -d internal/core ]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/simd and internal/core not found here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

# Keep the Go toolchain's own state inside the checkout and offline.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -o "$build/bin/bench" ./bench
go build -o "$build/bin/simd" ./cmd/simd
exec "$build/bin/bench" "$@"
