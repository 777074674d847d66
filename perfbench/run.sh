#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it. Run from the
# repository root; every argument is passed on:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 35 --trace 0
#
# The Go build cache, GOPATH, temporary files and the binary stay under
# .bench_build/ in the checkout, and no user Go configuration is read.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
else
	export PERFBENCH_COMMIT="unknown (not a git checkout)"
fi
exec "$build/bin/perfbench" "$@"
