#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload fig6a-density --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, spans) goes to
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
