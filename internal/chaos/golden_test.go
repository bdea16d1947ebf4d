package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

var regen = flag.Bool("regen", false, "rewrite the testdata repro fixtures")

// fixtures is the committed reproducer corpus: one scenario per invariant
// class, each sabotaged by the injection its oracle must catch, plus
// injection-less "clean" fixtures pinning known-good degraded-mode
// schedules (empty verdict). The files under testdata/ are real
// chaos_repro.json files — `e10chaos -replay` accepts them unchanged.
func fixtures() []struct {
	file string
	note string
	sc   Scenario
} {
	return []struct {
		file string
		note string
		sc   Scenario
	}{
		{
			file: "conservation.json",
			note: "node 1 crashes mid-write, then every dirty-extent journal is dropped: the crashed ranks' unsynced bytes are unaccounted for",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				Faults:    []Action{{Kind: fault.CrashNode, Node: 1, FromUS: 10_000}},
				Injection: "lose-journal",
			},
		},
		{
			file: "lost_ack.json",
			note: "durable bytes corrupted under a write whose rank saw no error: the acknowledgement was a lie",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				Injection: "lost-ack",
			},
		},
		{
			file: "idempotence.json",
			note: "cache payload corrupted between two journal replays: recovering twice diverges from recovering once",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 3,
				Faults:    []Action{{Kind: fault.CrashNode, Node: 1, FromUS: 10_000}},
				Injection: "corrupt-replay",
			},
		},
		{
			file: "lock_release.json",
			note: "a byte-range lock on the global file is taken during the run and never released",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeStrided, BlockKB: 64, Blocks: 2,
				Mode: "coherent", FlushFlag: "flush_immediate", Sessions: 1,
				Injection: "leak-lock",
			},
		},
		{
			file: "liveness.json",
			note: "a runaway process re-arms forever; the event-budget watchdog must abort the run",
			sc: Scenario{
				Seed: 42, Nodes: 1, PerNode: 2,
				Shape: ShapeContiguous, BlockKB: 16, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				EventBudget: 100_000,
				Injection:   "stall",
			},
		},
		{
			file: "trace_metrics.json",
			note: "retry counter bumped without a matching traced retry: one observability layer lies",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 1,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_adaptive", Sessions: 1,
				Injection: "miscount-retry",
			},
		},
		{
			file: "stuck_collective.json",
			note: "rank 0's collective accounting skewed as if it entered a collective and never returned: the stuck-collective oracle must notice",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2, Collective: true,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				Injection: "stuck-collective",
			},
		},
		{
			file: "partition_sync.json",
			note: "clean: node 0 is partitioned for 40ms mid-sync; partition-exempt retries ride it out and every byte lands, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 3,
				Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
				Faults: []Action{{Kind: fault.Partition, Nodes: []int{0},
					FromUS: 2_000, ToUS: 42_000}},
			},
		},
		{
			file: "noisy_neighbor.json",
			note: "clean: an unreserved noisy tenant floods an undersized NVM while a reserved tenant writes; capacity pressure degrades bandwidth only — both files match their solo same-seed runs, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 1, PerNode: 4,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
				SSDCapKB: 512,
				Tenants: []TenantSpec{
					{Ranks: 2, Blocks: 4, BlockKB: 64},
					{Ranks: 2, Blocks: 2, BlockKB: 64, ReserveKB: 256},
				},
			},
		},
		{
			file: "admission_reject.json",
			note: "clean: two tenants whose reservations cannot both fit the NVM device; the tenant admitted second is rejected and completes uncached through the global file system, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 1, PerNode: 4,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
				SSDCapKB: 512,
				Tenants: []TenantSpec{
					{Ranks: 2, Blocks: 2, BlockKB: 64, ReserveKB: 320},
					{Ranks: 2, Blocks: 2, BlockKB: 64, ReserveKB: 256},
				},
			},
		},
		{
			file: "admission_queue.json",
			note: "clean: the same two reservations, both tenants queueing for admission; the tenant admitted second waits for its neighbour to close, then runs cached, no fallback and no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 1, PerNode: 4,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
				SSDCapKB: 512,
				Tenants: []TenantSpec{
					{Ranks: 2, Blocks: 2, BlockKB: 64, ReserveKB: 320, Admit: "queue"},
					{Ranks: 2, Blocks: 2, BlockKB: 64, ReserveKB: 256, Admit: "queue"},
				},
			},
		},
		{
			file: "tenant_crash_isolation.json",
			note: "clean: one of three tenants crashes mid-flush while another runs at a starvation quota; the victims' journals conserve every acked byte and the survivors' files match their solo same-seed runs, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				SSDCapKB: 1024,
				Tenants: []TenantSpec{
					{Ranks: 1, Blocks: 3, BlockKB: 64},
					{Ranks: 2, Blocks: 3, BlockKB: 64, CrashUS: 3_000},
					{Ranks: 1, Blocks: 3, BlockKB: 64, QuotaKB: 64, Policy: "writethrough"},
				},
			},
		},
		{
			file: "tenant_scribble.json",
			note: "one tenant's pattern is scribbled into another tenant's file after the run: the victim's digest diverges from its solo same-seed run and tenant_isolation must notice",
			sc: Scenario{
				Seed: 42, Nodes: 1, PerNode: 4,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 1,
				Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
				Tenants: []TenantSpec{
					{Ranks: 2, Blocks: 2, BlockKB: 64},
					{Ranks: 2, Blocks: 2, BlockKB: 64},
				},
				Injection: "cross-tenant-scribble",
			},
		},
		{
			file: "critpath_overrun.json",
			note: "a span outliving the run is appended to the trace: the critical path attributes more time than the kernel's wall clock and critpath_consistency must notice",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeContiguous, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				Injection: "overrun-span",
			},
		},
		{
			file: "aggregator_crash.json",
			note: "clean: an aggregator node crashes mid-round during a resilient collective write; survivors recompute file domains and replay unacked rounds, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 3, PerNode: 1, Collective: true,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 4,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
				Faults: []Action{{Kind: fault.CrashNode, Node: 1, FromUS: 5_000}},
			},
		},
		{
			file: "torn_journal_crash.json",
			note: "clean: node 1 crashes mid-write and its last journal append is torn; scrub truncates to the valid record prefix, quarantines any dropped dirty range, and replay restores the rest, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 2,
				Faults: []Action{
					{Kind: fault.CrashNode, Node: 1, FromUS: 10_000},
					{Kind: fault.TornWrite, Node: 1, FromUS: 11_000},
				},
			},
		},
		{
			file: "bitrot_replay.json",
			note: "clean: node 1 crashes mid-write and its at-rest NVM state rots before recovery; checksums catch every rotten chunk, scrub quarantines them, and replay restores only verified bytes, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 2,
				Faults: []Action{
					{Kind: fault.CrashNode, Node: 1, FromUS: 10_000},
					{Kind: fault.BitRot, Node: 1, Factor: 0.1, FromUS: 12_000},
				},
			},
		},
		{
			file: "silent_corruption.json",
			note: "a durable byte is flipped inside an extent the recovery replay reported restored: recovery_equivalence must notice the restored bytes lie",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 2,
				Faults:    []Action{{Kind: fault.CrashNode, Node: 1, FromUS: 10_000}},
				Injection: "silent-corrupt",
			},
		},
		{
			file: "double_crash_scrub.json",
			note: "clean: node 1 crashes mid-write and node 0 crashes during the recovery window; the half-replayed journals stay replayable and the second recovery is idempotent, no invariant trips",
			sc: Scenario{
				Seed: 42, Nodes: 2, PerNode: 2,
				Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
				Mode: "enable", FlushFlag: "flush_onclose", Sessions: 3,
				Faults: []Action{
					{Kind: fault.CrashNode, Node: 1, FromUS: 10_000},
					{Kind: fault.CrashNode, Node: 0, FromUS: 60_000},
				},
			},
		},
	}
}

// TestReproFixturesReplay replays every committed reproducer and checks the
// recorded verdict reproduces exactly, and that it includes the invariant
// the fixture's injection targets. Run with -regen to rewrite the corpus.
func TestReproFixturesReplay(t *testing.T) {
	if *regen {
		for _, fx := range fixtures() {
			res := mustExecute(t, fx.sc)
			if fx.sc.Injection != "" && !res.Failed() {
				t.Fatalf("%s: fixture scenario does not fail", fx.file)
			}
			if fx.sc.Injection == "" && res.Failed() {
				t.Fatalf("%s: clean fixture scenario fails: %v", fx.file, res.ViolatedInvariants())
			}
			data, err := NewRepro(res, fx.note).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", fx.file)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s: %v", path, res.ViolatedInvariants())
		}
	}
	for _, fx := range fixtures() {
		fx := fx
		t.Run(fx.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/chaos -run Fixtures -regen` to regenerate)", err)
			}
			rp, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			res, match, err := Replay(rp)
			if err != nil {
				t.Fatal(err)
			}
			if !match {
				t.Fatalf("verdict did not reproduce: recorded %v, replayed %v",
					rp.Verdict, res.ViolatedInvariants())
			}
			if rp.Scenario.Injection == "" {
				if len(rp.Verdict) != 0 {
					t.Fatalf("clean fixture carries verdict %v, want empty", rp.Verdict)
				}
				return
			}
			want := Trips(rp.Scenario.Injection)
			found := false
			for _, inv := range rp.Verdict {
				if inv == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("fixture verdict %v misses the injection's target invariant %q",
					rp.Verdict, want)
			}
		})
	}
}

// TestFixtureCorpusCoversEveryInvariant pins the corpus contract, which
// makes it the oracle self-test table: every injection sabotages at least
// one committed reproducer (TestReproFixturesReplay asserts the verdict
// contains the invariant it trips — a checker green under its injection
// would miss the real bug class), every invariant class has a reproducer,
// and at least two clean degraded-mode fixtures (partition-during-sync,
// aggregator failover) pin known-good schedules.
func TestFixtureCorpusCoversEveryInvariant(t *testing.T) {
	injected := map[string]bool{}
	covered := map[string]bool{}
	clean := 0
	for _, fx := range fixtures() {
		if fx.sc.Injection == "" {
			clean++
			continue
		}
		injected[fx.sc.Injection] = true
		covered[Trips(fx.sc.Injection)] = true
	}
	for name := range injections {
		if !injected[name] {
			t.Errorf("no fixture exercises injection %q", name)
		}
	}
	for _, inv := range Invariants {
		if !covered[inv] {
			t.Errorf("no fixture covers invariant %q", inv)
		}
	}
	if clean < 2 {
		t.Errorf("corpus has %d clean fixtures, want >= 2", clean)
	}
	if len(fixtures()) < 5 {
		t.Errorf("corpus has %d fixtures, want >= 5", len(fixtures()))
	}
}
