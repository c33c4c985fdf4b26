#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Everything the build and the run write
# (Go build cache, binary, scratch files, traces, results) stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
