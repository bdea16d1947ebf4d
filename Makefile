# Tier-1 gate plus static, race and coverage checks; see scripts/check.sh.
.PHONY: check check-full test build vet fmt-check cover trace-demo \
	critpath-demo bench-record bench-compare scale-bench-record \
	scale-smoke scale chaos chaos-smoke linedelta reach

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Fail if any file is not gofmt-clean.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# Total statement coverage, printed per function and as a total.
cover:
	go test -count=1 -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -20

# Trace one representative cache-enabled coll_perf cell (16 aggregators,
# 16 MB buffers, 8x4 ranks, 2 files) to trace.json; open the file with
# https://ui.perfetto.dev (byte-reproducible per seed).
trace-demo:
	go run ./cmd/collperf -aggs 16 -cb 16 -nodes 8 -ppn 4 -files 2 -trace trace.json

# Critical-path report plus 24-bucket run timeline for the same
# representative cell (post-hoc analysis; byte-reproducible per seed).
critpath-demo:
	go run ./cmd/collperf -aggs 16 -cb 16 -nodes 8 -ppn 4 -files 2 -critpath -timeline 24

# Deterministic chaos soak: 200 seeded scenarios of each family — cache
# (cache-stack crashes and device faults), netfaults (degraded-mode
# collectives under lossy links, duplication, partitions, aggregator
# crashes), tenants (multi-tenant capacity arbitration and isolation) and
# corrupt (torn journal appends and bit-rot ahead of recovery) — checked
# against the end-to-end integrity oracles. Each report is byte-identical
# per (seed, iters, family); a failure is shrunk to a minimal replayable
# chaos_repro.json (replay: e10chaos -replay <file>).
chaos:
	for run in 1:cache 7:netfaults 11:tenants 13:corrupt; do \
		go run ./cmd/e10chaos -iters 200 -seed $${run%%:*} -family $${run#*:} || exit 1; \
	done

# The quick variant check.sh runs on every gate.
chaos-smoke:
	for run in 1:cache 2:netfaults 3:tenants 4:corrupt; do \
		go run ./cmd/e10chaos -iters 25 -seed $${run%%:*} -family $${run#*:} || exit 1; \
	done

# Run the fixed 18-scenario regression matrix and commit the baseline.
# The simulation is deterministic, so the file is reproducible per seed.
bench-record:
	go run ./cmd/e10bench -bench-record BENCH_$$(date +%Y-%m-%d).json

# Re-run the matrix and gate against the newest committed baseline
# (any scenario that does not reproduce it byte for byte fails). The glob
# excludes the BENCH_SCALE_*.json kilo-rank baselines, which e10bench
# gates separately as part of the same -bench-compare invocation.
bench-compare:
	@base=$$(ls BENCH_*.json 2>/dev/null | grep -v '^BENCH_SCALE_' | sort | tail -1); \
	if [ -z "$$base" ]; then echo "no BENCH_*.json baseline; run 'make bench-record' first" >&2; exit 1; fi; \
	go run ./cmd/e10bench -bench-compare "$$base"

# Record the kilo-rank kernel-throughput baseline: the deterministic
# 4096-rank report digest plus a conservative events/sec floor.
scale-bench-record:
	go run ./cmd/e10bench -scale-bench-record BENCH_SCALE_$$(date +%Y-%m-%d).json

# Kilo-rank smoke: the TestScale_ suite at its default 1024 ranks —
# clean, lossy and aggregator-crash collective writes gated on byte
# conservation, determinism and the committed digests.
scale-smoke:
	go test ./internal/harness -run '^TestScale_' -count=1 -timeout 300s

# Kilo-rank soak: the same suite at 4096 ranks (512 nodes x 8).
scale:
	go test ./internal/harness -run '^TestScale_' -count=1 -timeout 600s -scale.ranks=4096 -v

# Reachability gate: run the artifact-producing targets on
# cover-instrumented binaries and fail on any function none of them
# reaches that scripts/reach.allow does not name (about 3 minutes).
reach:
	scripts/reach.sh

# Lean-aim ledger: +/-/net lines of program code and of tests (Go files
# outside benchmark/) since BASE, e.g. make linedelta BASE=HEAD~1.
linedelta:
	scripts/linedelta.sh $(BASE)

check:
	scripts/check.sh

check-full:
	scripts/check.sh -full
