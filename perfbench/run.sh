#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given flags, for example:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off \
  GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
