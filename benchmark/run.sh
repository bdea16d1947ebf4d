#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through:
#
#   bash benchmark/run.sh -seed 42                    # all four workloads
#   bash benchmark/run.sh -workload paper_512 -seed 7 -seconds 10 -trace 0
#   bash benchmark/run.sh -compare a.json b.json
#
# The binary, the Go build cache and Go's temporary files all live under
# .bench_build/ at the repository root, so a run writes nothing outside the
# checkout. A failed build exits non-zero before anything runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

(
	cd "$root/benchmark"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$out/e10perf" .
)

cd "$root"
exec "$out/e10perf" "$@"
