#!/usr/bin/env bash
# Builds the benchmark and the modemerged daemon from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload flat-52k --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (CARGO_TARGET_DIR-style build directory).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/modemerged" modemerge/cmd/modemerged
exec "$out/perfbench" -out "$out" "$@"
