#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload detect --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, cached reference
# digests and the workloads' scratch directories.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off
# Fall back to the Go distribution's default install location.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
go build -C perfbench -buildvcs=false -o "$out/perfbench" . >&2
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$out/perfbench" --root "$root" --commit "$commit" "$@"
