#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root; every argument is passed on to the benchmark, e.g.
#
#   bash servebench/run.sh --workload hot-solve --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the span dumps stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
