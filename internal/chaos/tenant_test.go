package chaos

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
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

// fixtureRun runs a committed fixture's scenario through the run
// internals and requires a clean verdict and the pinned wall_ns, events
// and fallbacks.
func fixtureRun(t *testing.T, file string, wallNS, events int64, fallbacks int) (*run, *Result) {
	t.Helper()
	for _, fx := range fixtures() {
		if fx.file != file {
			continue
		}
		r := &run{sc: fx.sc, solo: -1}
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		r.simulate()
		res := r.check()
		if res.Failed() {
			t.Fatalf("%s violated: %v", file, res.Violations)
		}
		if res.WallNS != wallNS || res.Events != events || res.Fallbacks != fallbacks {
			t.Errorf("%s: wall_ns %d, events %d, fallbacks %d; want %d, %d, %d",
				file, res.WallNS, res.Events, res.Fallbacks, wallNS, events, fallbacks)
		}
		return r, res
	}
	t.Fatalf("no fixture %s", file)
	return nil, nil
}

// tenantInstants returns, per tenant, the virtual times of the tenant-layer
// instants named name on its ranks' tracks.
func tenantInstants(r *run, name string) [][]int64 {
	out := make([][]int64, len(r.sc.Tenants))
	for _, ev := range r.tracer.Events() {
		if ev.Cat != "tenant" || ev.Name != name {
			continue
		}
		for rank := 0; rank < r.sc.ranks(); rank++ {
			if r.cl.World.Rank(rank).TraceTrack(r.tracer) == ev.Track {
				if ti := r.sc.tenantOf(rank); ti >= 0 {
					out[ti] = append(out[ti], ev.Start)
				}
			}
		}
	}
	return out
}

// cacheWrites sums tenant i's cache writes over every cache it opened.
func (r *run) cacheWrites(i int) int64 {
	var n int64
	for _, c := range r.tenantCaches[i] {
		n += c.Stats.CacheWrites
	}
	return n
}

// TestTenantAdmission checks the admission fixtures and the noisy
// neighbour through the run internals: a rejected reservation falls back
// to the uncached path and is counted, a queued one admits once its
// neighbour has closed, and a reserved tenant is never displaced.
func TestTenantAdmission(t *testing.T) {
	t.Run("reject", func(t *testing.T) {
		r, res := fixtureRun(t, "admission_reject.json", 12978858, 74, 2)
		rejects := tenantInstants(r, "tenant_admit_reject")
		if len(rejects[0]) != 0 || len(rejects[1]) != r.sc.Tenants[1].Ranks {
			t.Fatalf("reject instants per tenant = %v, want none for t0 and one per t1 rank", rejects)
		}
		if r.cacheWrites(0) == 0 {
			t.Error("admitted tenant never reached the cache")
		}
		if len(r.tenantCaches[1]) != 0 || res.Fallbacks != r.sc.Tenants[1].Ranks {
			t.Errorf("rejected tenant should fall back uncached: %d caches, %d fallbacks",
				len(r.tenantCaches[1]), res.Fallbacks)
		}
		counted := false
		for _, c := range res.Metrics.Counters {
			if c.Name == "cache_tenant_admit_rejects_total" && c.Labels["tenant"] == tenantName(1) && c.Total > 0 {
				counted = true
			}
		}
		if !counted {
			t.Error("admission rejection not counted in cache_tenant_admit_rejects_total")
		}
	})

	t.Run("queue", func(t *testing.T) {
		r, res := fixtureRun(t, "admission_queue.json", 20967171, 106, 0)
		queued, admitted := tenantInstants(r, "tenant_admit_queued"), tenantInstants(r, "tenant_admitted")
		if len(queued[0]) != 0 || len(queued[1]) != r.sc.Tenants[1].Ranks {
			t.Fatalf("queued instants per tenant = %v, want none for t0 and one per t1 rank", queued)
		}
		if res.Fallbacks != 0 || r.cacheWrites(1) == 0 {
			t.Errorf("queued tenant should admit and run cached: %d fallbacks, %d cache writes",
				res.Fallbacks, r.cacheWrites(1))
		}
		// The neighbour's close waits for its sync threads, and only the
		// close releases its reservation.
		var closed int64
		for _, ev := range r.tracer.Events() {
			if strings.HasPrefix(r.tracer.TrackName(ev.Track), "sync."+tenantFile(0)) {
				closed = max(closed, ev.Start+ev.Dur)
			}
		}
		for k, at := range admitted[1] {
			if at < queued[1][k]+int64(sim.Millisecond) || at < closed {
				t.Errorf("queued tenant admitted at %d ns: queued at %d, neighbour synced by %d", at, queued[1][k], closed)
			}
		}
	})

	t.Run("noisy neighbour", func(t *testing.T) {
		r, res := fixtureRun(t, "noisy_neighbor.json", 25380059, 128, 0)
		reserved := 1
		if r.sc.Tenants[reserved].ReserveKB == 0 {
			t.Fatal("noisy_neighbor.json: tenant 1 holds no reservation")
		}
		if res.Fallbacks != 0 || len(r.tenantCaches[reserved]) != r.sc.Tenants[reserved].Ranks {
			t.Errorf("reserved tenant displaced: %d fallbacks, %d caches", res.Fallbacks, len(r.tenantCaches[reserved]))
		}
		for _, c := range r.tenantCaches[reserved] {
			if c.Stats.AdmitRejects != 0 {
				t.Errorf("reserved tenant saw %d admission rejects", c.Stats.AdmitRejects)
			}
		}
		if r.cacheWrites(reserved) == 0 {
			t.Error("reserved tenant never reached the cache")
		}
	})
}
