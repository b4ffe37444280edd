#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload resp-kv --seed 1 --seconds 16 --trace 0
#
# The binary, the Go build cache, the go command's config and telemetry
# directory, and the traced runs' span totals all stay under .bench_build/
# in the checkout. Nothing is downloaded: the module needs only the standard
# library and the repository's own packages.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
