#!/usr/bin/env bash
# Builds the benchmark harness and the repository's own binaries from
# source, then runs the harness with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload build --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binaries, scratch
# ladders and traces.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd perfbench && go build -o "$out/perfbench" .)
go build -o "$out/bin/" ./cmd/rabuild ./cmd/raserve ./cmd/rabroker
exec "$out/perfbench" -bin "$out/bin" -work "$out" "$@"
