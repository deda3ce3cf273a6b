#!/usr/bin/env bash
# run.sh builds the repository benchmark from the sources of the checkout
# it is started in and runs one workload:
#
#   bash perfbench/run.sh --workload paper_quick --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root; `cd perfbench && go test ./...` is its
# self-test. Everything the build and the run
# leave behind (Go build cache, binary, spans, profiles, temp dirs) goes
# under .bench_build/ in that root. The last line of standard output is
# the result object; build output goes to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/perfbench"
# Keep the toolchain's caches, config and telemetry inside the checkout,
# and never fetch anything: the benchmark needs only the standard library
# and this repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench/perfbench" . >&2
exec "$out/perfbench/perfbench" "$@"
