#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
#
# Usage, from the repository root:
#
#	bash perfbench/run.sh --workload fuzz-prune --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, span files and serve data dirs.
# Build output goes to stderr so the result JSON stays the last stdout line.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
