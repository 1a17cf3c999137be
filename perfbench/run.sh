#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload campaign-static --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the repository root. Every build artefact, the Go build cache
# included, stays under .bench_build/ in the checkout. Build failures (for
# example a checkout without the repository's sources) exit non-zero before
# anything is printed on standard output.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
