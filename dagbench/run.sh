#!/usr/bin/env bash
# Builds dagbench from the checkout it is run in and runs it; every argument
# is passed through. Run from the repository root:
#
#   bash dagbench/run.sh --workload paper-sync --seed 42 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files) stays under
# .bench_build in the checkout, and the toolchain never reaches the network.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off \
	XDG_CONFIG_HOME="$build/config"
go build -C dagbench -o "$build/dagbench" .
exec "$build/dagbench" "$@"
