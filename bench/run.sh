#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run from
# the root of the checkout; arguments go to the benchmark (see README.md).
# Everything the build and the run write stays under .bench_build/ and
# bench/out/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
# The benchmark module has no dependency outside this checkout.
export GOPROXY=off

go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
