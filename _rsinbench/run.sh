#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash _rsinbench/run.sh --workload omega4096 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary,
# Go build cache, span files) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout. The build needs the repository's
# go.mod one level up; without it the script fails before printing a
# result.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/spans"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/_rsinbench" && go build -o "$out/rsinbench" .) >&2
exec "$out/rsinbench" -spans "$out/spans" "$@"
