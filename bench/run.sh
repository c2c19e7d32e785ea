#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing
# every argument through:
#
#   bash bench/run.sh -seed 42
#   bash bench/run.sh --workload btree-w1 --seed 7 --seconds 12 --trace 1
#
# Everything the Go toolchain writes (build cache, temporary files, its
# own configuration and telemetry) stays in the build directory:
# $CARGO_TARGET_DIR when set, else .bench_build at the root. The
# benchmark is its own module (bench/go.mod) that takes the program's
# packages from the enclosing checkout, so it fails to build anywhere
# else.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	HOME=$build/home XDG_CONFIG_HOME=$build/home/.config XDG_CACHE_HOME=$build/home/.cache \
	GOPATH=$build/home/go GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/pmbench" .
exec "$build/pmbench" "$@"
