#!/usr/bin/env bash
# Builds the why-not benchmark from this checkout and runs one workload.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload fig15-cardb50k --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/whynotbench" .) >&2
exec "$out/whynotbench" --root "$root" "$@"
