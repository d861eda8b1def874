#!/usr/bin/env bash
# Builds the cold-path serving benchmark from this checkout's sources and
# runs it. All build output (binary and Go build cache) stays under
# .bench_build/ at the checkout root; nothing is fetched from the network.
# Arguments are passed through, e.g.:
#
#   bash perfbench/run.sh --workload estimate-cold --seed 1 --seconds 45 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
