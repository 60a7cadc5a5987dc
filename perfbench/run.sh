#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every build and run artifact stays under .bench_build/:
#
#   bash perfbench/run.sh --workload arena --seed 1 --seconds 20 --trace 0
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local \
	HOME="$build/home" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
