#!/usr/bin/env bash
# Builds campsrv and the benchmark from the source tree this script sits in,
# then runs one benchmark invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
unset GOMAXPROCS GOOS GOARCH CGO_ENABLED

go build -o "$out/bin/campsrv" ./cmd/campsrv >&2
(cd perfbench && go build -o "$out/bin/perfbench" . >&2)
exec "$out/bin/perfbench" --campsrv "$out/bin/campsrv" --out "$out" "$@"
