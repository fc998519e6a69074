#!/usr/bin/env bash
# Builds the end-to-end log benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload et1-commit --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, log stores, traces)
# lands under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
