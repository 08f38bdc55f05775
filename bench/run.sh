#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh                                  # every workload
#   bash bench/run.sh -workload ingest -seed 3         # one workload
#   bash bench/run.sh -workload repro -trace 1         # per-layer run
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in the current directory: the Go build cache, the
# binary, durable server state and trace files. The toolchain must be local
# (no download) and the module needs nothing outside the repository.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

# go writes its telemetry and env files under the user's config directory;
# point that into the build directory for the build only.
HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home" \
	go -C "$root/bench" build -buildvcs=false -o "$build/bench" .

exec "$build/bench" "$@"
