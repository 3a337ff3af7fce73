#!/usr/bin/env bash
# Builds the benchmark (bench/, a module of its own over the repository's
# packages) from source and runs it with the given arguments, from the
# repository root. The binary, the Go build cache and every scratch file
# stay under .bench_build/ at the root, so nothing outside the checkout is
# written. See bench/README.md.
#
#   bash bench/run.sh                                        # every workload, untraced
#   bash bench/run.sh -trace 1                               # the traced (per-layer) pass
#   bash bench/run.sh --workload gate --seed 3 --seconds 10 --trace 0
#   bash bench/run.sh -compare base.json new.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -buildvcs=false -o "$build/bench" .)
exec "$build/bench" "$@"
