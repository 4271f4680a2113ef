#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of a checkout:
#
#	bash perfbench/run.sh --workload sim-local --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout, including the Go build
# cache. The build needs the repository module one directory up; run
# outside a checkout, it fails and prints no result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
out="$out/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export PERFBENCH_OUT="$out"

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
