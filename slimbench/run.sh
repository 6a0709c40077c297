#!/usr/bin/env bash
# Builds the slimbench binary from the source tree it sits in and runs it
# with the given arguments. Run from the repository root:
#
#	bash slimbench/run.sh --workload rounds --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the workloads' scratch files go under
# $CARGO_TARGET_DIR (default .bench_build), so a run reads and writes only
# inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/slimbench/go.mod" ]]; then
	echo "slimbench: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$root/slimbench" && go build -o "$build/slimbench" .) >&2
exec "$build/slimbench" -work "$build/work" "$@"
