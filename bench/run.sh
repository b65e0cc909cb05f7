#!/usr/bin/env bash
# Builds dlbench from the source in this checkout and runs it with the
# given arguments. Run it from the repository root, for example
#
#   bash bench/run.sh --workload serve-lookup --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the go command's own files (telemetry
# counters live under the user config directory) and the durable stores
# of a run all stay under .bench_build/, so the benchmark writes nothing
# outside the checkout and never reaches the network for modules or
# toolchains.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/bench" && go build -o "$out/dlbench" .)
exec "$out/dlbench" -scratch "$out" "$@"
