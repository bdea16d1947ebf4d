package chaos

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

// tenanted returns a small healthy two-tenant scenario on one shared NVM.
func tenanted() Scenario {
	return Scenario{
		Seed: 42, Nodes: 1, PerNode: 4,
		Shape: ShapeContiguous, BlockKB: 64, Blocks: 1,
		Mode: "enable", FlushFlag: "flush_immediate", Sessions: 1,
		Tenants: []TenantSpec{
			{Ranks: 2, Blocks: 2, BlockKB: 64},
			{Ranks: 2, Blocks: 2, BlockKB: 64},
		},
	}
}

// offNodeCorruption returns tenanted() on a 2x4 cluster, both tenants on
// node 0, with a bit-rot and a torn write on the tenant-free node 1. The
// node-scoped corruption faults victimize no tenant, so the isolation
// oracle must still check both.
func offNodeCorruption() Scenario {
	sc := tenanted()
	sc.Nodes = 2
	sc.Faults = []Action{
		{Kind: fault.BitRot, Node: 1, Factor: 0.1, FromUS: 2_000},
		{Kind: fault.TornWrite, Node: 1, FromUS: 3_000},
	}
	return sc
}

func TestTenantCleanScenarioHasNoViolations(t *testing.T) {
	for name, sc := range map[string]Scenario{"one node": tenanted(), "off-node corruption": offNodeCorruption()} {
		res := mustExecute(t, sc)
		if res.Failed() {
			t.Fatalf("%s: clean tenant scenario violated: %v", name, res.Violations)
		}
		if res.AckedOps != 8 {
			t.Fatalf("%s: acked %d writes, want 8", name, res.AckedOps)
		}
	}
}

// TestTenantCrashMidFlushIsolation drives the tenant_crash_isolation
// fixture scenario through the run internals: the crashed tenant's ranks
// must actually see the crash (otherwise the fixture pins nothing), the
// quota-starved tenant must actually hit capacity pressure, and still no
// invariant — conservation for the victim, isolation for the survivors —
// may trip.
func TestTenantCrashMidFlushIsolation(t *testing.T) {
	sc := Scenario{
		Seed: 42, Nodes: 2, PerNode: 2,
		Shape: ShapeInterleaved, BlockKB: 64, Blocks: 1,
		Mode: "enable", FlushFlag: "flush_onclose", Sessions: 1,
		SSDCapKB: 1024,
		Tenants: []TenantSpec{
			{Ranks: 1, Blocks: 3, BlockKB: 64},
			{Ranks: 2, Blocks: 3, BlockKB: 64, CrashUS: 3_000},
			{Ranks: 1, Blocks: 3, BlockKB: 64, QuotaKB: 64, Policy: "writethrough"},
		},
	}
	r := &run{sc: sc, solo: -1}
	if err := r.setup(); err != nil {
		t.Fatal(err)
	}
	r.simulate()
	res := r.check()
	if res.Failed() {
		t.Fatalf("crash-isolation scenario violated: %v", res.Violations)
	}
	crashed := 0
	for lr := 0; lr < sc.Tenants[1].Ranks; lr++ {
		if r.rankErr[sc.tenantStart(1)+lr] != "" {
			crashed++
		}
	}
	if crashed == 0 {
		t.Error("crashed tenant's ranks saw no error: the crash never engaged")
	}
	for _, i := range []int{0, 2} {
		for lr := 0; lr < sc.Tenants[i].Ranks; lr++ {
			if e := r.rankErr[sc.tenantStart(i)+lr]; e != "" {
				t.Errorf("surviving tenant %d rank saw error: %s", i, e)
			}
		}
	}
	var pressured int64
	for _, c := range r.tenantCaches[2] {
		pressured += c.Stats.QuotaWriteThroughs + c.Stats.QuotaStalls
	}
	if pressured == 0 {
		t.Error("starvation-quota tenant never hit capacity pressure")
	}
}

// TestTenantScribbleTripsOnlyIsolation pins the blast radius of the
// cross-tenant-scribble injection: the victim's digest diverges, but no
// acked-write oracle fires (the foreign byte lands outside every acked
// extent). Corruption faults on a node hosting no tenant must not mute the
// isolation oracle.
func TestTenantScribbleTripsOnlyIsolation(t *testing.T) {
	for name, sc := range map[string]Scenario{"one node": tenanted(), "off-node corruption": offNodeCorruption()} {
		sc.Injection = "cross-tenant-scribble"
		res := mustExecute(t, sc)
		invs := res.ViolatedInvariants()
		if len(invs) != 1 || invs[0] != InvTenantIsolation {
			t.Fatalf("%s: scribble verdict %v, want exactly [%s]", name, invs, InvTenantIsolation)
		}
		found := false
		for _, v := range res.Violations {
			if strings.Contains(v.Detail, "diverged from its solo same-seed run") {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: violation detail does not name the solo divergence: %v", name, res.Violations)
		}
	}
}

func TestTenantExecuteIsDeterministic(t *testing.T) {
	sc := tenanted()
	sc.Tenants[0].QuotaKB = 64
	sc.Tenants[1].Admit = "queue"
	sc.Tenants[1].ReserveKB = 128
	sc.SSDCapKB = 256
	a := mustExecute(t, sc)
	b := mustExecute(t, sc)
	if a.WallNS != b.WallNS || a.Events != b.Events || a.AckedOps != b.AckedOps {
		t.Fatalf("tenant runs diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.WallNS, a.Events, a.AckedOps, b.WallNS, b.Events, b.AckedOps)
	}
}

func TestTenantScenarioValidateRejectsBadInput(t *testing.T) {
	mut := func(f func(*Scenario)) Scenario {
		sc := tenanted()
		f(&sc)
		return sc
	}
	cases := map[string]Scenario{
		"collective+tenants": mut(func(sc *Scenario) { sc.Collective = true; sc.Nodes = 2 }),
		"multi-session":      mut(func(sc *Scenario) { sc.Sessions = 2 }),
		"too many ranks":     mut(func(sc *Scenario) { sc.Tenants[0].Ranks = 4 }),
		"zero-rank tenant":   mut(func(sc *Scenario) { sc.Tenants[1].Ranks = 0 }),
		"bad admit":          mut(func(sc *Scenario) { sc.Tenants[0].Admit = "maybe" }),
		"bad policy":         mut(func(sc *Scenario) { sc.Tenants[0].Policy = "panic" }),
		"reserve beyond quota": mut(func(sc *Scenario) {
			sc.Tenants[0].QuotaKB = 64
			sc.Tenants[0].ReserveKB = 128
		}),
		"negative crash time": mut(func(sc *Scenario) { sc.Tenants[0].CrashUS = -1 }),
		"negative ssd cap":    mut(func(sc *Scenario) { sc.SSDCapKB = -1 }),
		"scribble needs two tenants": mut(func(sc *Scenario) {
			sc.Tenants = sc.Tenants[:1]
			sc.Injection = "cross-tenant-scribble"
		}),
	}
	for name, sc := range cases {
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: invalid scenario accepted", name)
		}
	}
}
