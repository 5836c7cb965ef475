#!/usr/bin/env bash
# Builds gossipd and the replication benchmark from this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build product and every temporary file stays under .bench_build/ in
# the checkout (Go's build cache included), so the run reads and writes only
# inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$root" && go build -o "$out/gossipd" ./cmd/gossipd)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -gossipd "$out/gossipd" "$@"
