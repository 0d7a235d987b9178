#!/usr/bin/env bash
# Builds the benchmark harness and runs it on the checkout this script
# sits in. Everything it writes — the Go build cache included — goes under
# .bench_build/ at the checkout root, so a run touches nothing outside
# the checkout. Arguments are passed on:
#
#   bash benchmark/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh compare A.jsonl B.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOENV=off GOTOOLCHAIN=local
# Go's telemetry counters follow the user configuration directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/bin/benchmark" .)
cd "$root"
exec "$out/bin/benchmark" "$@"
