#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of the repository:
#   bash campaignbench/run.sh --workload mbpta-rm --seed 1 --seconds 15 --trace 0
# Every file the Go toolchain writes (build cache, temporaries, its
# configuration) stays under .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${PWD}/.bench_build/campaignbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/mod" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
