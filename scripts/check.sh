#!/bin/sh
# check.sh — the repo's tier-1 gate plus static, race and coverage checks.
#
#   scripts/check.sh          # fmt, build, vet, full tests, race (-short), coverage
#   scripts/check.sh -full    # same, but the race pass runs the full suite
#
# The race pass defaults to -short: the heavy end-to-end shape tests guard
# themselves with testing.Short() so the race detector finishes in seconds
# instead of minutes. Pass -full before a release. SKIP_RACE=1 skips the
# race pass entirely (for hosts where the race runtime is unavailable).
#
# A chaos smoke (see internal/chaos) also gates the run: 25 seeded
# scenarios of each family checked against the end-to-end integrity
# oracles — cache (cache-stack scenarios under crashes and device faults),
# netfaults (degraded-mode collective writes under lossy links,
# duplication, partitions and aggregator crashes), tenants (multi-tenant
# capacity arbitration and isolation under crashes and NVM faults) and
# corrupt (torn journal appends and NVM bit-rot before recovery, checked
# by the scrub/quarantine path). SKIP_CHAOS=1 skips it; `make chaos` runs
# the 200-iteration soaks. The fuzz corpora also replay once (Fuzz* seeds
# as regression tests; SKIP_FUZZ=1 skips).
#
# The two-phase round-planning, analytic-Alltoall, survivor-communicator,
# Allreduce-fold, MemStore strided-assembly, kernel-dispatch (Sleep,
# ping-pong, Spawn, step messages, timer churn), journal-append and PFS
# write microbenchmarks run once after the tests, so they keep compiling
# and their built-in equality and allocation checks keep running (an
# append into a pre-grown cache journal must not allocate; a one-stream
# PFS write must not allocate, a four-stream one at most 6 times).
#
# A kilo-rank scale smoke also gates the run: the TestScale_ suite at
# 1024 ranks (clean, lossy and aggregator-crash collective writes checked
# for byte conservation, determinism and the committed report digests).
# SKIP_SCALE=1 skips it; `make scale` runs the 4096-rank soak.
#
# When a BENCH_*.json baseline is committed, the newest one also gates the
# run: e10bench -bench-compare runs the 18-cell matrix once and fails
# unless it reproduces the file byte for byte, naming every scenario that
# differs (SKIP_BENCH=1 skips this pass). A committed BENCH_SCALE_*.json
# additionally gates the 4096-rank kernel in the same call: its report
# digest must reproduce exactly and the measured events/sec must stay
# above the recorded floor (including the critical-path analyzer's own
# floor).
#
# A reachability gate follows the scale smoke: scripts/reach.sh runs the
# repo's artifact-producing targets on cover-instrumented binaries and
# fails when a function none of them reaches is missing from
# scripts/reach.allow; a sabotage self-test then drops one allowlisted
# function and requires the gate to fail naming it. SKIP_REACH=1 skips it.
#
# A cardinality lint also gates the run: e10stat -lint rejects unbounded
# metric-label values and trace-name vocabularies (a raw rank id leaking
# into a label, say) over the demo pair's metrics and every committed JSON
# artifact. SKIP_LINT=1 skips it.
set -eu
cd "$(dirname "$0")/.."

# Minimum total statement coverage; the suite currently sits around 79%.
cover_min=70

race_flags="-short"
if [ "${1:-}" = "-full" ]; then
    race_flags=""
fi

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./...   (tier-1)"
go test ./...

# benchmark/ is a module of its own, which the root's ./... skips. Vet and
# test it in place (read-only), so a build-tag or go.mod change that would
# break bash benchmark/run.sh fails here too.
echo "== benchmark module: go vet ./... && go test ./..."
(cd benchmark && go vet ./... && go test ./...)

echo "== microbenchmarks once (round planning, alltoall, survivor comms, allreduce fold, MemStore assembly, kernel dispatch, step messages, journal append and PFS writes)"
go test -run '^$' -bench 'RoundPlan|Alltoall|Survivor|Allreduce|MemStore|Kernel|JournalAppend|PFSWrite' -benchtime 1x ./internal/adio ./internal/mpi ./internal/store ./internal/sim ./internal/core ./internal/pfs

if [ "${SKIP_RACE:-}" = "1" ]; then
    echo "== race pass skipped (SKIP_RACE=1)"
else
    echo "== go test -race $race_flags ./..."
    # shellcheck disable=SC2086 # race_flags is intentionally word-split
    go test -race -count=1 $race_flags ./...
fi

if [ "${SKIP_CHAOS:-}" = "1" ]; then
    echo "== chaos smoke skipped (SKIP_CHAOS=1)"
else
    for run in 1:cache 2:netfaults 3:tenants 4:corrupt; do
        echo "== chaos smoke: 25 seeded ${run#*:} scenarios through the integrity oracles"
        go run ./cmd/e10chaos -iters 25 -seed "${run%%:*}" -family "${run#*:}"
    done
fi

if [ "${SKIP_FUZZ:-}" = "1" ]; then
    echo "== fuzz corpus replay skipped (SKIP_FUZZ=1)"
else
    echo "== fuzz corpus replay (committed Fuzz* seeds as regression tests)"
    go test -run 'Fuzz.*' ./...
fi

if [ "${SKIP_SCALE:-}" = "1" ]; then
    echo "== scale smoke skipped (SKIP_SCALE=1)"
else
    echo "== scale smoke (1024-rank collective writes: clean, lossy, crash)"
    go test ./internal/harness -run '^TestScale_' -count=1 -timeout 300s
fi

if [ "${SKIP_REACH:-}" = "1" ]; then
    echo "== reachability gate skipped (SKIP_REACH=1)"
else
    echo "== reachability gate (every function no target reaches is allowlisted)"
    funcs=$(mktemp)
    scripts/reach.sh -save "$funcs"
    # Sabotage self-test: without its first entry the allowlist must fail
    # the gate, naming that function.
    victim=$(grep -v '^[[:space:]]*\(#\|$\)' scripts/reach.allow | head -1 | awk '{ print $1 }')
    allow=$(mktemp)
    grep -v "^$victim[[:space:]]" scripts/reach.allow >"$allow"
    if out=$(scripts/reach.sh -funcs "$funcs" -allow "$allow" 2>&1); then
        echo "reach self-test: the gate passed without $victim on the allowlist" >&2
        exit 1
    fi
    if ! echo "$out" | grep -q "^  $victim\$"; then
        echo "reach self-test: the gate failed without naming $victim:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "reach self-test: dropping $victim from the allowlist fails the gate"
    rm -f "$funcs" "$allow"
fi

if [ "${SKIP_BENCH:-}" = "1" ]; then
    echo "== bench-compare skipped (SKIP_BENCH=1)"
else
    # BENCH_SCALE_*.json is the kilo-rank baseline, not a matrix baseline;
    # e10bench picks it up itself inside the same -bench-compare run.
    base=$(ls BENCH_*.json 2>/dev/null | grep -v '^BENCH_SCALE_' | sort | tail -1 || true)
    if [ -n "$base" ]; then
        echo "== bench-compare vs $base (the 18-cell matrix must reproduce it byte for byte)"
        go run ./cmd/e10bench -bench-compare "$base"
    else
        echo "== bench-compare skipped (no BENCH_*.json baseline)"
    fi
fi

if [ "${SKIP_LINT:-}" = "1" ]; then
    echo "== cardinality lint skipped (SKIP_LINT=1)"
else
    echo "== cardinality lint (metric labels and trace names stay bounded)"
    # shellcheck disable=SC2046 # artifact list is intentionally word-split
    go run ./cmd/e10stat -lint -run \
        $(ls BENCH_*.json 2>/dev/null || true) \
        internal/harness/testdata/*.json
fi

echo "== coverage gate (>= ${cover_min}% of statements)"
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -count=1 -coverprofile="$profile" ./... >/dev/null
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "total coverage: ${total}%"
ok=$(awk -v t="$total" -v m="$cover_min" 'BEGIN {print (t+0 >= m) ? 1 : 0}')
if [ "$ok" != 1 ]; then
    echo "coverage ${total}% is below the ${cover_min}% gate" >&2
    exit 1
fi

echo "== all checks passed"
