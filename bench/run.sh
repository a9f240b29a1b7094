#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments:
#
#   bash bench/run.sh --workload matmul-bbcount --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# result files all stay under .bench_build/ there.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
