package chaos

import (
	"math/rand"
	"testing"

	"repro/internal/adio"
	"repro/internal/fault"
)

// base returns a small healthy scenario used as the starting point for most
// tests.
func base() Scenario {
	return Scenario{
		Seed: 42, Nodes: 2, PerNode: 2,
		Shape: ShapeInterleaved, BlockKB: 64, Blocks: 2,
		Mode: "enable", FlushFlag: "flush_onclose",
		Sessions: 1,
	}
}

// crashed returns a crash+recovery scenario: one node dies mid-write, then
// sessions recovery-open the file.
func crashed(sessions int) Scenario {
	sc := base()
	sc.Sessions = sessions
	sc.Faults = []Action{{Kind: fault.CrashNode, Node: 1, FromUS: 10_000}}
	return sc
}

// collective returns a degraded-mode scenario: a resilient two-phase
// strided write with reliable delivery and collective timeouts armed.
func collective() Scenario {
	sc := base()
	sc.Collective = true
	return sc
}

func mustExecute(t *testing.T, sc Scenario) *Result {
	t.Helper()
	res, err := Execute(sc)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

func TestCleanScenarioHasNoViolations(t *testing.T) {
	for _, shape := range []string{ShapeContiguous, ShapeInterleaved, ShapeStrided} {
		for _, flush := range []string{"flush_immediate", "flush_onclose", "flush_adaptive"} {
			sc := base()
			sc.Shape = shape
			sc.FlushFlag = flush
			res := mustExecute(t, sc)
			if res.Failed() {
				t.Errorf("%s/%s: unexpected violations: %v", shape, flush, res.Violations)
			}
			if res.AckedOps != sc.ranks()*sc.Blocks {
				t.Errorf("%s/%s: acked %d writes, want %d", shape, flush, res.AckedOps, sc.ranks()*sc.Blocks)
			}
		}
	}
}

func TestCoherentCleanScenario(t *testing.T) {
	sc := base()
	sc.Mode = "coherent"
	res := mustExecute(t, sc)
	if res.Failed() {
		t.Fatalf("coherent clean run violated: %v", res.Violations)
	}
}

func TestCrashRecoveryScenarioConservesBytes(t *testing.T) {
	res := mustExecute(t, crashed(2))
	if res.Failed() {
		t.Fatalf("crash+recovery violated: %v", res.Violations)
	}
}

func TestIdempotenceProbeScenario(t *testing.T) {
	res := mustExecute(t, crashed(3))
	if res.Failed() {
		t.Fatalf("idempotence probe violated: %v", res.Violations)
	}
}

func TestExecuteIsDeterministic(t *testing.T) {
	sc := crashed(3)
	a := mustExecute(t, sc)
	b := mustExecute(t, sc)
	ra, err := NewRepro(a, "").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := NewRepro(b, "").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) != string(rb) {
		t.Fatalf("same scenario, different verdicts:\n%s\nvs\n%s", ra, rb)
	}
	if a.Events != b.Events || a.WallNS != b.WallNS {
		t.Fatalf("same scenario, different event/time counts: %d/%d vs %d/%d",
			a.Events, a.WallNS, b.Events, b.WallNS)
	}
}

func TestCollectiveCleanScenario(t *testing.T) {
	res := mustExecute(t, collective())
	if res.Failed() {
		t.Fatalf("fault-free collective run violated: %v", res.Violations)
	}
	sc := collective()
	if res.AckedOps != sc.ranks()*sc.Blocks {
		t.Fatalf("acked %d writes, want %d", res.AckedOps, sc.ranks()*sc.Blocks)
	}
}

// TestCollectiveScenariosSurviveNetworkFaults runs the degraded-mode
// workload under each new fault kind: the oracles must stay green — every
// surviving rank's acked bytes durable, no rank stuck in a collective.
func TestCollectiveScenariosSurviveNetworkFaults(t *testing.T) {
	cases := map[string][]Action{
		"lossy-link": {{Kind: fault.LossyLink, Node: 0, Factor: 0.15, FromUS: 1_000, ToUS: 40_000}},
		"dup-link":   {{Kind: fault.DupLink, Node: 1, Factor: 0.25, FromUS: 1_000, ToUS: 40_000}},
		"partition":  {{Kind: fault.Partition, Nodes: []int{1}, FromUS: 5_000, ToUS: 30_000}},
		"agg-crash":  {{Kind: fault.CrashNode, Node: 1, FromUS: 5_000}},
		"combined": {
			{Kind: fault.LossyLink, Node: 0, Factor: 0.1, FromUS: 1_000, ToUS: 20_000},
			{Kind: fault.CrashNode, Node: 1, FromUS: 8_000},
		},
	}
	for name, faults := range cases {
		sc := collective()
		sc.Blocks = 4
		sc.Faults = faults
		res := mustExecute(t, sc)
		if res.Failed() {
			t.Errorf("%s: degraded-mode run violated: %v", name, res.Violations)
		}
	}
}

func TestCollectiveExecuteIsDeterministic(t *testing.T) {
	sc := collective()
	sc.Blocks = 4
	sc.Faults = []Action{
		{Kind: fault.LossyLink, Node: 0, Factor: 0.2, FromUS: 1_000, ToUS: 30_000},
		{Kind: fault.CrashNode, Node: 1, FromUS: 8_000},
	}
	a := mustExecute(t, sc)
	b := mustExecute(t, sc)
	if a.Events != b.Events || a.WallNS != b.WallNS || a.AckedOps != b.AckedOps {
		t.Fatalf("same degraded scenario diverged: events %d/%d, time %d/%d, acked %d/%d",
			a.Events, b.Events, a.WallNS, b.WallNS, a.AckedOps, b.AckedOps)
	}
}

// TestGenerateAlwaysValidates draws 500 scenarios per family: every one
// must validate and carry its family's defining property.
func TestGenerateAlwaysValidates(t *testing.T) {
	props := map[Family]func(Scenario) bool{
		FamilyCache: func(Scenario) bool { return true },
		FamilyNetFaults: func(sc Scenario) bool {
			return sc.Collective && len(sc.Faults) > 0
		},
		FamilyTenants: func(sc Scenario) bool {
			return len(sc.Tenants) >= 2 && sc.SSDCapKB > 0
		},
		FamilyCorrupt: func(sc Scenario) bool {
			corrupting := false
			for _, a := range sc.Faults {
				corrupting = corrupting || a.Kind == fault.TornWrite || a.Kind == fault.BitRot
			}
			return sc.Sessions >= 2 && corrupting
		},
	}
	for _, fam := range Families {
		fam := fam
		t.Run(string(fam), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				sc := Generate(rng, fam)
				if err := sc.Validate(); err != nil {
					t.Fatalf("generated scenario %d invalid: %v\n%+v", i, err, sc)
				}
				if !props[fam](sc) {
					t.Fatalf("generated scenario %d lacks the %s family property: %+v", i, fam, sc)
				}
			}
		})
	}
}

// TestBitRotQuarantinesBytes pins that the corruption fixtures are not
// vacuous: bit-rot over a crashed node's at-rest state must actually send
// bytes through the scrub's quarantine path, with consistent stats, while
// the verdict stays clean (detected corruption is accounted corruption).
func TestBitRotQuarantinesBytes(t *testing.T) {
	sc := crashed(2)
	sc.Faults = append(sc.Faults, Action{
		Kind: fault.BitRot, Node: 1, Factor: 0.2, FromUS: 12_000,
	})
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &run{sc: sc, solo: -1}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	r.simulate()
	res := r.check()
	if res.Failed() {
		t.Fatalf("bit-rot scenario violated invariants: %v", res.Violations)
	}
	var quar int64
	for _, b := range r.quarBytes {
		quar += b
	}
	if quar == 0 {
		t.Fatal("bit-rot under a crashed journal quarantined nothing; the scrub path was not exercised")
	}
	var corrupt int64
	for _, c := range r.caches {
		corrupt += c.Stats.CorruptExtents
	}
	if corrupt == 0 {
		t.Fatal("no corrupt extents counted despite quarantined bytes")
	}
}

// TestExploreSoakIsClean runs the scripts/check.sh smoke of every family
// (25 iterations at its seed) and pins the report digest: a drift in any
// generator draw, scenario field or run outcome moves it. Every soak must
// also be clean.
func TestExploreSoakIsClean(t *testing.T) {
	pinned := map[Family]struct {
		seed   int64
		digest string
	}{
		FamilyCache:     {1, "0f4e684b2122daef5b506ae4c1a45a906f7bf561d0a5bc189a89dee044219d8e"},
		FamilyNetFaults: {2, "7419f3ce890b19ed613116533d30591375b5f42e2118a353f8ae4c068233ed59"},
		FamilyTenants:   {3, "684720ff4f328929c5e32932108ec943633ad69059d7eb3b39176a30fc04d7d3"},
		FamilyCorrupt:   {4, "faee58ec8b0f704e426cc2be1f60127d71a0bf6eac1bd318366a25cd7f9eb4e1"},
	}
	for _, fam := range Families {
		fam, pin := fam, pinned[fam]
		t.Run(string(fam), func(t *testing.T) {
			rep, err := Explore(pin.seed, 25, fam, nil)
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if len(rep.Failures) != 0 {
				t.Fatalf("soak found violations:\n%s", rep.Text())
			}
			if fam == FamilyTenants && len(rep.Tenants) == 0 {
				t.Fatal("report carries no tenant coverage")
			}
			got, err := rep.Digest()
			if err != nil {
				t.Fatal(err)
			}
			if got != pin.digest {
				t.Fatalf("report digest %s, want %s\n%s", got, pin.digest, rep.Text())
			}
		})
	}
}

func TestInjectionsTripTheirInvariant(t *testing.T) {
	cases := map[string]Scenario{
		"lose-journal":          crashed(1),
		"lost-ack":              base(),
		"corrupt-replay":        crashed(3),
		"leak-lock":             base(),
		"stall":                 base(),
		"miscount-retry":        base(),
		"stuck-collective":      collective(),
		"cross-tenant-scribble": tenanted(),
		"overrun-span":          base(),
		"silent-corrupt":        crashed(2),
	}
	if len(cases) != len(injections) {
		t.Fatalf("test covers %d injections, registry has %d", len(cases), len(injections))
	}
	for name, sc := range cases {
		sc.Injection = name
		if name == "stall" {
			sc.EventBudget = 100_000
		}
		res := mustExecute(t, sc)
		want := Trips(name)
		found := false
		for _, inv := range res.ViolatedInvariants() {
			if inv == want {
				found = true
			}
		}
		if !found {
			t.Errorf("injection %q: invariant %q not tripped (got %v)",
				name, want, res.ViolatedInvariants())
		}
	}
}

func TestShrinkReducesFaultScheduleAndWorkload(t *testing.T) {
	// A failure caused by an injection, padded with irrelevant hardware
	// faults: the shrinker must strip the padding and bisect the workload.
	sc := Scenario{
		Seed: 42, Nodes: 3, PerNode: 2,
		Shape: ShapeStrided, BlockKB: 256, Blocks: 4,
		Mode: "enable", FlushFlag: "flush_onclose",
		Sessions:  1,
		Injection: "leak-lock",
		Faults: []Action{
			{Kind: fault.DegradeLink, Node: 0, Factor: 0.5, FromUS: 1000, ToUS: 5000},
			{Kind: fault.DegradeTarget, Target: 1, Factor: 0.5, FromUS: 2000, ToUS: 9000},
			{Kind: fault.DeviceENOSPC, Node: 2, FromUS: 3000, ToUS: 7000},
			{Kind: fault.FailTarget, Target: 3, FromUS: 4000, ToUS: 6000},
		},
	}
	sr, err := Shrink(sc)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if len(sr.Minimal.Faults) > 3 {
		t.Fatalf("shrinker left %d fault actions, want <= 3: %+v",
			len(sr.Minimal.Faults), sr.Minimal.Faults)
	}
	if sr.Minimal.Blocks >= sc.Blocks || sr.Minimal.BlockKB >= sc.BlockKB {
		t.Errorf("workload not reduced: blocks %d->%d, block_kb %d->%d",
			sc.Blocks, sr.Minimal.Blocks, sc.BlockKB, sr.Minimal.BlockKB)
	}
	// The minimal scenario still fails the original invariant.
	res := mustExecute(t, sr.Minimal)
	found := false
	for _, inv := range res.ViolatedInvariants() {
		for _, orig := range sr.Invariants {
			if inv == orig {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("minimal scenario no longer fails the original invariants %v (got %v)",
			sr.Invariants, res.ViolatedInvariants())
	}
}

func TestShrinkRejectsPassingScenario(t *testing.T) {
	if _, err := Shrink(base()); err == nil {
		t.Fatal("shrink of a clean scenario should error")
	}
}

func TestReproRoundTrip(t *testing.T) {
	sc := base()
	sc.Injection = "leak-lock"
	res := mustExecute(t, sc)
	if !res.Failed() {
		t.Fatal("expected a failing result to capture")
	}
	rp := NewRepro(res, "leak-lock self-test")
	data, err := rp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseRepro(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res2, match, err := Replay(parsed)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !match {
		t.Fatalf("replay verdict %v, recorded %v", res2.ViolatedInvariants(), rp.Verdict)
	}
}

func TestParseReproRejectsBadInput(t *testing.T) {
	if _, err := ParseRepro([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ParseRepro([]byte(`{"version":99}`)); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := ParseRepro([]byte(`{"version":1,"scenario":{"seed":1,"nodes":0}}`)); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestScenarioValidateRejectsBadInput(t *testing.T) {
	cases := []func(*Scenario){
		func(sc *Scenario) { sc.Nodes = 0 },
		func(sc *Scenario) { sc.Nodes = 9 },
		func(sc *Scenario) { sc.PerNode = 5 },
		func(sc *Scenario) { sc.BlockKB = 2 },
		func(sc *Scenario) { sc.Blocks = 0 },
		func(sc *Scenario) { sc.Sessions = 4 },
		func(sc *Scenario) { sc.Shape = "diagonal" },
		func(sc *Scenario) { sc.Mode = "disable" },
		func(sc *Scenario) { sc.FlushFlag = "flush_never" },
		func(sc *Scenario) { sc.Injection = "bogus" },
		func(sc *Scenario) {
			sc.Faults = []Action{{Kind: fault.FailDevice, Node: 7, FromUS: 100}}
		},
		func(sc *Scenario) {
			sc.Faults = []Action{{Kind: fault.FailTarget, Target: 9, FromUS: 100}}
		},
		func(sc *Scenario) {
			sc.Faults = []Action{{Kind: "melt", Node: 0, FromUS: 100}}
		},
		func(sc *Scenario) { // overlapping same-kind windows caught via Schedule().Validate
			sc.Faults = []Action{
				{Kind: fault.FailDevice, Node: 0, FromUS: 100, ToUS: 5000},
				{Kind: fault.FailDevice, Node: 0, FromUS: 2000, ToUS: 9000},
			}
		},
		func(sc *Scenario) { // lossy link without the reliable layer deadlocks
			sc.Faults = []Action{{Kind: fault.LossyLink, Node: 0, Factor: 0.1, FromUS: 100, ToUS: 5000}}
		},
		func(sc *Scenario) { // dup link is collective-only too
			sc.Faults = []Action{{Kind: fault.DupLink, Node: 0, Factor: 0.1, FromUS: 100, ToUS: 5000}}
		},
		func(sc *Scenario) { // permanent partition = dead cluster, not a finding
			sc.Faults = []Action{{Kind: fault.Partition, Nodes: []int{0}, FromUS: 100}}
		},
		func(sc *Scenario) { // partition group must leave survivors
			sc.Faults = []Action{{Kind: fault.Partition, Nodes: []int{0, 1}, FromUS: 100, ToUS: 5000}}
		},
		func(sc *Scenario) { // partition member outside the cluster
			sc.Faults = []Action{{Kind: fault.Partition, Nodes: []int{7}, FromUS: 100, ToUS: 5000}}
		},
		func(sc *Scenario) { // collective mode has no recovery sessions
			sc.Collective = true
			sc.Sessions = 2
		},
		func(sc *Scenario) { // collective mode needs cross-node traffic
			sc.Collective = true
			sc.Nodes = 1
		},
		func(sc *Scenario) { // core rejects the admission mode
			sc.Tenants = []TenantSpec{{Ranks: 1, Blocks: 1, BlockKB: 4, Admit: "beg"}}
		},
		func(sc *Scenario) { // core rejects a reservation beyond the quota
			sc.Tenants = []TenantSpec{{Ranks: 1, Blocks: 1, BlockKB: 4, QuotaKB: 64, ReserveKB: 128}}
		},
	}
	for i, mutate := range cases {
		sc := base()
		mutate(&sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: invalid scenario accepted: %+v", i, sc)
		}
	}
}

func TestOffsetsAreDisjoint(t *testing.T) {
	for _, shape := range []string{ShapeContiguous, ShapeInterleaved, ShapeStrided} {
		sc := base()
		sc.Shape = shape
		sc.Blocks = 4
		seen := map[int64]string{}
		for rank := 0; rank < sc.ranks(); rank++ {
			for b := 0; b < sc.Blocks; b++ {
				off := offsetFor(sc.Shape, sc.ranks(), sc.Blocks, rank, b, sc.BlockKB<<10)
				if off%(sc.BlockKB<<10) != 0 {
					t.Fatalf("%s: rank %d block %d offset %d not block-aligned", shape, rank, b, off)
				}
				if prev, dup := seen[off]; dup {
					t.Fatalf("%s: rank %d block %d collides with %s at offset %d", shape, rank, b, prev, off)
				}
				seen[off] = "earlier write"
			}
		}
	}
}

// TestCollectiveScenarioOpensResilient checks that a collective scenario
// opens with the failover write selected and a cached one without it.
func TestCollectiveScenarioOpensResilient(t *testing.T) {
	for _, sc := range []Scenario{collective(), base()} {
		h, err := adio.ParseHints(sc.hints(-1, false), sc.ranks())
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ResilientWrite == adio.HintEnable; got != sc.Collective {
			t.Errorf("collective=%v: failover write selected=%v", sc.Collective, got)
		}
	}
}
