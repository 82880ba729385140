#!/usr/bin/env bash
# Builds the repository benchmark from the checkout it is run in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cells-read --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the
# run write (Go build cache, binary, temporary serve stores) stays under
# .bench_build in that directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
