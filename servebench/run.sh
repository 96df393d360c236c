#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the root
# of the repository; every argument is passed on, for example
#   bash servebench/run.sh --workload shortlist --seed 1 --seconds 36 --trace 0
# The Go build cache and the binary go to $CARGO_TARGET_DIR (default
# .bench_build) under the current directory, and traced runs write their
# spans to .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
