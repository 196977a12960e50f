#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload wordcount --seed 1 --seconds 20 --trace 0
#
# Everything the build writes goes under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
