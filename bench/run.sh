#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh                                  # every workload, seed 1
#   bash bench/run.sh --workload colo-16c --seed 7 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, and traces.
# Modules are never downloaded (the benchmark needs only the standard
# library and the repository itself).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C bench build -o "$out/vesselbench" .
exec "$out/vesselbench" "$@"
