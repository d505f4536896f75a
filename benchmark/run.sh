#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the arguments given. Everything the build writes stays under
# .bench_build in the checkout: the binary, the Go build cache, and the
# go command's configuration directory (XDG_CONFIG_HOME). GOENV=off and
# GOTOOLCHAIN=local keep it from reading a user configuration or fetching
# another toolchain.
#
# The go command keeps usage counters under its configuration directory and,
# when that directory is new, starts a detached copy of itself to tidy them,
# which can outlive the build. The mode file written below turns the counters
# off, so go build starts no process that this script does not wait for.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod beside benchmark/: the program to measure is not in this checkout" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$out/fqbenchmark" ./benchmark
exec "$out/fqbenchmark" "$@"
