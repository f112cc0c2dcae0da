#!/bin/sh
# Builds the benchmark driver from source and runs it. Run from the
# repository root, e.g.:
#
#   sh perfbench/run.sh --workload campaign --seed 1 --seconds 35 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
