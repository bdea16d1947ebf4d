#!/bin/sh
# reach.sh — the reachability gate: which program functions does no
# artifact-producing run reach?
#
#   scripts/reach.sh                 # build, run every target, check
#   scripts/reach.sh -save F         # same, and keep the per-function listing in F
#   scripts/reach.sh -funcs F [-allow A]
#                                    # check a saved listing (no build, no run)
#
# It builds every CLI, the five examples and the benchmark (from
# benchmark/, read-only) with `go build -cover -coverpkg=repro/...` into a
# temporary directory and runs the targets the repo already has: the
# e10bench figures, bench record/compare, the 4096-rank scale record,
# ablations, the fault demo and the 1024-rank scale variants; the four
# 25-iteration chaos smokes and every committed chaos fixture; collperf,
# ior and flashio cells, among them collperf's trace (16x4, linted),
# critical-path, timeline and metrics runs of one representative cell;
# e10stat over the demo outputs and every committed artifact; and one
# 1-second traced benchmark pass.
# Every target must exit 0. The merged counters (go tool covdata) give each
# function's statement coverage; every function at 0% must be listed in
# the allowlist (default scripts/reach.allow), each line naming the test
# that reaches it and why it stays. An unlisted function at 0%, or a
# listed one that is reached or gone, fails the gate.
set -eu
cd "$(dirname "$0")/.."

allow=scripts/reach.allow
funcs=""
save=""
while [ $# -gt 0 ]; do
    case "$1" in
    -allow) allow=$2; shift 2 ;;
    -funcs) funcs=$2; shift 2 ;;
    -save) save=$2; shift 2 ;;
    *) echo "reach.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ -z "$funcs" ]; then
    bin=$tmp/bin
    cov=$tmp/cov
    out=$tmp/out
    mkdir -p "$bin" "$cov" "$out"
    echo "== reach: building cover-instrumented binaries"
    go build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
    (cd benchmark && go build -cover -coverpkg=repro/... -o "$bin/benchmark" .)

    fixtures=$(ls internal/chaos/testdata/*.json)
    artifacts=$(ls BENCH_*.json internal/harness/testdata/*.json)
    # One target per line; the first word names its log. Two run at a time.
    {
        echo "record $bin/e10bench -bench-record $out/bench.json"
        # The matrix compare runs beside a copy of the matrix baseline only:
        # with the BENCH_SCALE_*.json beside it, it would also gate the
        # kernel's events/sec, which the instrumented, loaded binaries miss.
        base=$(ls BENCH_*.json | grep -v '^BENCH_SCALE_' | sort | tail -1)
        mkdir -p "$out/compare"
        cp "$base" "$out/compare/"
        echo "compare sh -c \"cd $out/compare && exec $bin/e10bench -bench-compare $base\""
        echo "figs $bin/e10bench -fig all -sweep quick -csv $out/figs.csv"
        echo "ablation $bin/e10bench -ablation -scale 8x4 -files 2"
        echo "faultdemo $bin/e10bench -faultdemo -scale 8x4 -files 2"
        # The representative cache-enabled coll_perf cell: 16 aggregators,
        # 16 MB buffers. The trace runs on 16 nodes: a trace name that
        # carries a node number crosses e10stat's 64-name budget from 12
        # nodes on.
        demo="-aggs 16 -cb 16 -ppn 4 -files 2"
        echo "trace $bin/collperf $demo -nodes 16 -trace $out/trace.json"
        echo "critpath $bin/collperf $demo -nodes 8 -critpath -timeline 24"
        echo "metrics $bin/collperf $demo -nodes 8 -metrics -metrics-out $out/metrics.json"
        echo "scale-record $bin/e10bench -scale-bench-record $out/scale.json"
        for v in clean lossy crash; do
            echo "scale-$v $bin/e10bench -scale-critpath $v -scale-ranks 1024"
        done
        for run in 1:cache 2:netfaults 3:tenants 4:corrupt; do
            echo "chaos-${run#*:} $bin/e10chaos -iters 25 -seed ${run%%:*} -family ${run#*:} -repro $out/repro-${run#*:}.json"
        done
        for fx in $fixtures; do
            echo "replay-$(basename "$fx" .json) $bin/e10chaos -replay $fx -critpath -timeline -metrics-out $out/replay-$(basename "$fx" .json).json"
        done
        cell="-nodes 8 -ppn 4 -aggs 8 -files 2 -compute 1"
        echo "collperf $bin/collperf $cell -case enabled -trace-summary"
        echo "collperf-bb $bin/collperf $cell -case burstbuffer -stats"
        echo "collperf-resilient $bin/collperf -nodes 4 -ppn 2 -aggs 4 -files 2 -compute 1 -resilient -faults partition,nodes=3,from=100ms,to=150ms -critpath -timeline 8"
        echo "ior $bin/ior $cell"
        echo "flashio $bin/flashio -nodes 4 -ppn 4 -aggs 4 -files 2 -blocks 8 -plot"
        for ex in aggsweep checkpoint coherent quickstart readback; do
            echo "example-$ex $bin/$ex"
        done
        echo "bench1s $bin/benchmark -seconds 1 -trace 1 -out $out/bench-layers.json"
    } >"$tmp/targets"

    echo "== reach: running $(wc -l <"$tmp/targets") targets"
    # shellcheck disable=SC2016 # $1.. expand in the child shell
    if ! GOCOVERDIR=$cov xargs -P 2 -L 1 sh -c '
        name=$1; shift
        if "$@" >"$0/$name.log" 2>&1; then echo "   ok   $name"; else echo "   FAIL $name: $*"; tail -5 "$0/$name.log"; exit 255; fi
    ' "$out" <"$tmp/targets"; then
        echo "reach: a target failed" >&2
        exit 1
    fi
    # e10stat reports on what the runs wrote plus every committed artifact,
    # and lints the demo metrics and trace and the committed artifacts.
    for t in "stat $bin/e10stat $out/metrics.json $out/trace.json $out/bench.json $out/replay-bitrot_replay.json $artifacts" \
        "stat-csv $bin/e10stat -format csv $out/metrics.json $out/scale.json $artifacts" \
        "stat-lint $bin/e10stat -lint -run $out/metrics.json $out/trace.json $artifacts"; do
        # shellcheck disable=SC2086 # t is intentionally word-split
        set -- $t
        name=$1; shift
        if ! GOCOVERDIR=$cov "$@" >"$out/$name.log" 2>&1; then
            echo "   FAIL $name"; tail -5 "$out/$name.log"; exit 1
        fi
        echo "   ok   $name"
    done

    go tool covdata textfmt -i="$cov" -o "$tmp/prof.txt"
    # The benchmark's own package lives in another module; keep repro's.
    grep -v '^repro/benchmark/' "$tmp/prof.txt" >"$tmp/prof.repro"
    funcs=$tmp/funcs
    go tool cover -func="$tmp/prof.repro" >"$funcs"
    if [ -n "$save" ]; then
        cp "$funcs" "$save"
    fi
fi

# Unreached functions, keyed path:func (line numbers drift with edits).
awk '$NF == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^repro\//, "", f); print f ":" $2 }' "$funcs" |
    sort -u >"$tmp/unreached"
grep -v '^[[:space:]]*\(#\|$\)' "$allow" | awk '{ print $1 }' | sort -u >"$tmp/allowed"

status=0
unlisted=$(comm -23 "$tmp/unreached" "$tmp/allowed")
if [ -n "$unlisted" ]; then
    echo "reach: functions no target reaches and the allowlist ($allow) does not name:" >&2
    echo "$unlisted" | sed 's/^/  /' >&2
    status=1
fi
stale=$(comm -13 "$tmp/unreached" "$tmp/allowed")
if [ -n "$stale" ]; then
    echo "reach: allowlist entries that are reached or gone (remove them):" >&2
    echo "$stale" | sed 's/^/  /' >&2
    status=1
fi
total=$(grep -c . "$tmp/unreached" || true)
echo "reach: $total functions unreached by every target, all allowlisted: $([ $status = 0 ] && echo yes || echo no)"
exit $status
