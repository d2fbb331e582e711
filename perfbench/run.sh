#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from and
# runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload cnn-hylo-local --seed 1 --seconds 25 --trace 0
# The Go build cache, the go command's own config and telemetry, and the
# binary live in .bench_build/ so that nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
