#!/bin/sh
# linedelta.sh — the lean-aim ledger: lines added, removed and net since a
# base revision, for program code (non-test Go files) and for tests (Go
# test files), both outside benchmark/, by `git diff --numstat`. The diff
# runs from the base to the working tree, so new files count once staged.
#
#   scripts/linedelta.sh <base-rev>     # or: make linedelta BASE=<base-rev>
set -eu
base=${1:?usage: scripts/linedelta.sh <base-rev>}
cd "$(dirname "$0")/.."
git diff --numstat "$base" -- '*.go' ':(exclude)benchmark/' | awk '
$3 ~ /_test\.go$/ { ta += $1; tr += $2; next }
                  { pa += $1; pr += $2 }
END {
	printf "program code: +%d -%d net %+d\n", pa, pr, pa - pr
	printf "tests:        +%d -%d net %+d\n", ta, tr, ta - tr
}'
