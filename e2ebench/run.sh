#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; arguments pass through, e.g.
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
# Build products stay in the checkout, under $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"
# Keep every cache and config file the toolchain writes inside $out, and
# never reach for the network: the build needs nothing but the repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
