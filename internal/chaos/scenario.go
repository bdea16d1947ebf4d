// Package chaos is a deterministic chaos/soak harness for the simulated E10
// stack, in the style of FoundationDB's simulation testing: a seeded
// explorer (Explore) draws randomized-but-reproducible scenarios of one
// Family from one generator (Generate) — collective workload shapes crossed
// with fault schedules over every modelled hardware layer — runs each
// through the full cluster with one workload driver, and checks a registry
// of end-to-end integrity oracles (byte conservation against an in-memory
// reference file, no lost acknowledgements, journal-replay idempotence,
// lock release on every error path, virtual-time liveness, trace/metrics
// cross-consistency). A failing scenario is shrunk to a minimal reproducer
// and serialized as a replayable chaos_repro.json.
package chaos

import (
	"fmt"
	"math/rand"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Workload shapes: how the ranks' write extents tile the shared file.
const (
	// ShapeContiguous gives each rank one private contiguous region.
	ShapeContiguous = "contiguous"
	// ShapeInterleaved interleaves block b of rank r at (b*R + r) blocks.
	ShapeInterleaved = "interleaved"
	// ShapeStrided strides each rank's blocks with holes between rounds.
	ShapeStrided = "strided"
)

// Action is one scheduled fault in a scenario, a JSON-serializable mirror
// of fault.Fault with microsecond times.
type Action struct {
	Kind   fault.Kind `json:"kind"`
	Node   int        `json:"node,omitempty"`
	Nodes  []int      `json:"nodes,omitempty"` // partition: the cut group
	Target int        `json:"target,omitempty"`
	Factor float64    `json:"factor,omitempty"`
	FromUS int64      `json:"from_us"`
	ToUS   int64      `json:"to_us,omitempty"` // 0 = permanent
}

// String renders the action like the fault engine renders its faults.
func (a Action) String() string { return a.fault().String() }

func (a Action) fault() fault.Fault {
	return fault.Fault{
		Kind: a.Kind, Node: a.Node, Nodes: a.Nodes, Target: a.Target, Factor: a.Factor,
		From: sim.Time(a.FromUS) * sim.Microsecond,
		To:   sim.Time(a.ToUS) * sim.Microsecond,
	}
}

// TenantSpec describes one tenant job inside a multi-tenant scenario: its
// rank block (ranks are assigned contiguously in tenant order), its private
// workload, and its capacity contract with the shared NVM devices. Each
// tenant writes its own file (chaos.t<i>.dat) with a tenant-unique payload
// pattern, which is what lets the tenant_isolation oracle detect one
// tenant's bytes leaking into another's namespace.
type TenantSpec struct {
	Ranks   int   `json:"ranks"`
	Blocks  int   `json:"blocks"`
	BlockKB int64 `json:"block_kb"`

	// Capacity contract, in KB (0 = unlimited / no reservation).
	QuotaKB   int64 `json:"quota_kb,omitempty"`
	ReserveKB int64 `json:"reserve_kb,omitempty"`
	// Admit: "" (reject) | "reject" | "queue"; Policy: "" (block) |
	// "block" | "writethrough" — see internal/core tenant hints.
	Admit  string `json:"admit,omitempty"`
	Policy string `json:"policy,omitempty"`

	// CrashUS > 0 crashes this tenant's cache layer at that virtual time
	// (mid-flush when it lands inside the write phase). Only the tenant's
	// caches die — the node, and every other tenant on it, keeps running.
	CrashUS int64 `json:"crash_us,omitempty"`
}

// bytes returns the tenant's total write footprint.
func (t TenantSpec) bytes() int64 {
	return int64(t.Ranks) * int64(t.Blocks) * (t.BlockKB << 10)
}

// Scenario is one randomized-but-reproducible chaos experiment: a workload
// shape plus hint combination crossed with a fault schedule. Scenarios are
// value types; the JSON form is the replay format.
type Scenario struct {
	Seed    int64 `json:"seed"` // kernel seed: full hardware determinism
	Nodes   int   `json:"nodes"`
	PerNode int   `json:"ranks_per_node"`

	Shape   string `json:"shape"`
	BlockKB int64  `json:"block_kb"`
	Blocks  int    `json:"blocks"` // write calls per rank

	Mode      string `json:"cache_mode"` // enable | coherent
	FlushFlag string `json:"flush_flag"` // flush_immediate | flush_onclose | flush_adaptive
	Discard   bool   `json:"discard"`

	// Sessions: 1 = write only; 2 = write then a recovery open
	// (e10_cache_recovery); 3 = additionally re-stage the journal and
	// recover again, probing replay idempotence.
	Sessions int `json:"sessions"`

	// Collective switches the workload from independent cached writes to
	// the degraded-mode collective path: reliable delivery and collective
	// timeouts armed, a resilient two-phase strided write, and crash-node
	// faults that kill the node's MPI ranks outright (aggregator failover).
	// Network fault kinds (lossy-link, dup-link) require this mode.
	Collective bool `json:"collective,omitempty"`

	// Tenants switches the workload to multi-tenant service mode: each
	// tenant runs as an independent job on a contiguous rank block, writing
	// its own file under its own capacity contract, all contending for the
	// shared per-node NVM. Requires Sessions=1 and Collective=false.
	Tenants []TenantSpec `json:"tenants,omitempty"`

	// SSDCapKB overrides every node's NVM capacity (KB); 0 keeps the
	// harness default. Tenant scenarios shrink it to force contention.
	SSDCapKB int64 `json:"ssd_cap_kb,omitempty"`

	Faults []Action `json:"faults,omitempty"`

	// EventBudget bounds the kernel's dispatched events (liveness
	// watchdog); 0 uses DefaultEventBudget.
	EventBudget int64 `json:"event_budget,omitempty"`

	// Injection deliberately sabotages the run so the oracles themselves
	// can be regression-tested (see injection.go). Empty for real soaks.
	Injection string `json:"injection,omitempty"`
}

// DefaultEventBudget bounds one scenario's kernel events. Clean scenarios
// dispatch a few tens of thousands; hitting this means a livelock.
const DefaultEventBudget = 2_000_000

// ranks returns the world size.
func (sc *Scenario) ranks() int { return sc.Nodes * sc.PerNode }

// tenantStart returns the first global rank of tenant i (tenants occupy
// contiguous rank blocks in declaration order).
func (sc *Scenario) tenantStart(i int) int {
	s := 0
	for j := 0; j < i; j++ {
		s += sc.Tenants[j].Ranks
	}
	return s
}

// tenantOf returns the tenant index owning a global rank, -1 for idle
// ranks beyond the tenants' blocks.
func (sc *Scenario) tenantOf(rank int) int {
	s := 0
	for i, t := range sc.Tenants {
		if rank < s+t.Ranks {
			return i
		}
		s += t.Ranks
	}
	return -1
}

// tenantFaulted reports whether tenant i is a deliberate fault victim: it
// crashes mid-run, or a scheduled fault touches a node hosting its ranks
// (cluster-scoped faults — PFS targets, partitions — touch every tenant).
// The tenant_isolation oracle asserts nothing about faulted tenants' own
// files; their durability is the conservation oracle's business.
func (sc *Scenario) tenantFaulted(i int) bool {
	t := sc.Tenants[i]
	if t.CrashUS > 0 {
		return true
	}
	lo := sc.tenantStart(i)
	hi := lo + t.Ranks - 1
	onNode := func(n int) bool { return n >= lo/sc.PerNode && n <= hi/sc.PerNode }
	for _, a := range sc.Faults {
		switch a.Kind {
		case fault.CrashNode, fault.FailDevice, fault.DeviceENOSPC,
			fault.DegradeLink, fault.LossyLink, fault.DupLink,
			fault.TornWrite, fault.BitRot:
			if onNode(a.Node) {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// offsetFor places block b of rank (of ranks, each writing blocks blocks of
// bs bytes) in its file; extents are disjoint across all (rank, block)
// pairs for every shape. Tenants pass their own rank count, block count and
// tenant-local rank.
func offsetFor(shape string, ranks, blocks, rank, b int, bs int64) int64 {
	R := int64(ranks)
	switch shape {
	case ShapeInterleaved:
		return (int64(b)*R + int64(rank)) * bs
	case ShapeStrided:
		// One hole block between successive rounds of the rank grid.
		return (int64(b)*(R+1) + int64(rank)) * bs
	default: // contiguous
		return (int64(rank)*int64(blocks) + int64(b)) * bs
	}
}

// Schedule converts the scenario's actions into an armable fault schedule.
func (sc *Scenario) Schedule() *fault.Schedule {
	s := &fault.Schedule{Faults: make([]fault.Fault, len(sc.Faults))}
	for i, a := range sc.Faults {
		s.Faults[i] = a.fault()
	}
	return s
}

// checkHints parses the Info that open passes for tenant ti (-1: none),
// so the hint rules of adio and core apply to the scenario as they do to
// its run.
func (sc *Scenario) checkHints(ti int) error {
	h, err := adio.ParseHints(sc.hints(ti, false), sc.ranks())
	if err == nil {
		_, err = core.ParseOptions(h.Extra)
	}
	return err
}

// Validate checks the scenario's internal consistency: workload bounds, a
// known shape and cache mode, hints that adio and core accept (checkHints),
// fault locations within the cluster, and a valid fault schedule. It
// reports the first problem found.
func (sc *Scenario) Validate() error {
	switch {
	case sc.Nodes < 1 || sc.Nodes > 8:
		return fmt.Errorf("chaos: nodes %d outside [1,8]", sc.Nodes)
	case sc.PerNode < 1 || sc.PerNode > 4:
		return fmt.Errorf("chaos: ranks_per_node %d outside [1,4]", sc.PerNode)
	case sc.BlockKB < 4 || sc.BlockKB > 1024:
		return fmt.Errorf("chaos: block_kb %d outside [4,1024]", sc.BlockKB)
	case sc.Blocks < 1 || sc.Blocks > 16:
		return fmt.Errorf("chaos: blocks %d outside [1,16]", sc.Blocks)
	case sc.Sessions < 1 || sc.Sessions > 3:
		return fmt.Errorf("chaos: sessions %d outside [1,3]", sc.Sessions)
	}
	switch sc.Shape {
	case ShapeContiguous, ShapeInterleaved, ShapeStrided:
	default:
		return fmt.Errorf("chaos: unknown shape %q", sc.Shape)
	}
	switch sc.Mode {
	case "enable", "coherent":
	default:
		return fmt.Errorf("chaos: unknown cache_mode %q", sc.Mode)
	}
	if sc.Collective {
		if sc.Sessions != 1 {
			return fmt.Errorf("chaos: collective scenarios take sessions=1, got %d (no cache journal to recover)", sc.Sessions)
		}
		if sc.Nodes < 2 {
			return fmt.Errorf("chaos: collective scenarios need >= 2 nodes for cross-node traffic")
		}
	}
	if len(sc.Tenants) > 0 {
		if sc.Collective {
			return fmt.Errorf("chaos: tenant scenarios use the cached path, not collective mode")
		}
		if sc.Sessions != 1 {
			return fmt.Errorf("chaos: tenant scenarios take sessions=1, got %d", sc.Sessions)
		}
		if len(sc.Tenants) > 4 {
			return fmt.Errorf("chaos: %d tenants outside [1,4]", len(sc.Tenants))
		}
		sum := 0
		for i, t := range sc.Tenants {
			switch {
			case t.Ranks < 1:
				return fmt.Errorf("chaos: tenant %d: ranks %d < 1", i, t.Ranks)
			case t.Blocks < 1 || t.Blocks > 16:
				return fmt.Errorf("chaos: tenant %d: blocks %d outside [1,16]", i, t.Blocks)
			case t.BlockKB < 4 || t.BlockKB > 1024:
				return fmt.Errorf("chaos: tenant %d: block_kb %d outside [4,1024]", i, t.BlockKB)
			case t.QuotaKB < 0 || t.ReserveKB < 0 || t.CrashUS < 0:
				return fmt.Errorf("chaos: tenant %d: negative capacity or crash time", i)
			}
			if err := sc.checkHints(i); err != nil {
				return fmt.Errorf("chaos: tenant %d: %w", i, err)
			}
			sum += t.Ranks
		}
		if sum > sc.ranks() {
			return fmt.Errorf("chaos: tenants need %d ranks, world has %d", sum, sc.ranks())
		}
	} else if err := sc.checkHints(-1); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if sc.SSDCapKB < 0 {
		return fmt.Errorf("chaos: negative ssd_cap_kb %d", sc.SSDCapKB)
	}
	// The per-fault rules live in fault.Schedule.Validate; the scenario
	// adds only where its cluster and workload mode allow a fault.
	if err := sc.Schedule().Validate(); err != nil {
		return err
	}
	for i, a := range sc.Faults {
		switch a.Kind {
		case fault.FailTarget, fault.DegradeTarget:
			// Target count fixed by pfs.DefaultConfig (4 targets).
			if a.Target >= 4 {
				return fmt.Errorf("chaos: fault %d (%s): target %d outside PFS", i, a, a.Target)
			}
		case fault.Partition:
			if len(a.Nodes) >= sc.Nodes {
				return fmt.Errorf("chaos: fault %d (%s): partition group must be a strict subset of the cluster", i, a)
			}
			for _, n := range a.Nodes {
				if n >= sc.Nodes {
					return fmt.Errorf("chaos: fault %d (%s): node %d outside cluster", i, a, n)
				}
			}
		case fault.LossyLink, fault.DupLink:
			// Without the reliable-delivery layer a single dropped message
			// deadlocks the run, which is a broken scenario, not a finding.
			if !sc.Collective {
				return fmt.Errorf("chaos: fault %d (%s): %s requires a collective scenario (reliable delivery armed)", i, a, a.Kind)
			}
			fallthrough
		default:
			if a.Node >= sc.Nodes {
				return fmt.Errorf("chaos: fault %d (%s): node %d outside cluster", i, a, a.Node)
			}
		}
	}
	if sc.Injection != "" {
		if _, ok := injections[sc.Injection]; !ok {
			return fmt.Errorf("chaos: unknown injection %q", sc.Injection)
		}
		if sc.Injection == "cross-tenant-scribble" && len(sc.Tenants) < 2 {
			return fmt.Errorf("chaos: injection %q needs >= 2 tenants", sc.Injection)
		}
		if sc.Injection == "silent-corrupt" && sc.Sessions < 2 {
			return fmt.Errorf("chaos: injection %q needs a recovery session (sessions >= 2)", sc.Injection)
		}
	}
	return nil
}

// Family names one scenario mix; e10chaos -family picks one to soak.
type Family string

const (
	// FamilyCache is the default mix: cache-stack scenarios under crashes,
	// device and target faults, one in four a degraded-mode collective.
	FamilyCache Family = "cache"
	// FamilyNetFaults draws only degraded-mode collectives: resilient
	// writes under lossy links, duplication, partitions and aggregator
	// crashes.
	FamilyNetFaults Family = "netfaults"
	// FamilyTenants draws only multi-tenant service-mode scenarios: several
	// jobs contending for undersized shared NVM under quotas, reservations,
	// queued admissions, mid-flush tenant crashes and NVM faults.
	FamilyTenants Family = "tenants"
	// FamilyCorrupt draws only corruption-recovery scenarios: a crash plus
	// a torn journal append, bit-rot or both on the crashed node's NVM,
	// followed by scrub-and-repair recovery sessions.
	FamilyCorrupt Family = "corrupt"
)

// Families lists every scenario family.
var Families = []Family{FamilyCache, FamilyNetFaults, FamilyTenants, FamilyCorrupt}

// familySpec is one family's shared prelude: the workload ranges Generate
// draws from before the family's own tail.
type familySpec struct {
	nodes, perNode [2]int   // {base, span}: base + rng.Intn(span)
	blockKB        []int64  // nil: tenants carry their own workload
	flush          []string // flush flags; drawn only when there are several
	discard        bool     // draw the discard flag
}

var allFlush = []string{"flush_immediate", "flush_onclose", "flush_adaptive"}

var families = map[Family]familySpec{
	FamilyCache:     {nodes: [2]int{1, 3}, perNode: [2]int{1, 2}, blockKB: []int64{16, 64, 128, 256}, flush: allFlush, discard: true},
	FamilyNetFaults: {nodes: [2]int{2, 2}, perNode: [2]int{1, 2}, blockKB: []int64{16, 64, 128}, flush: []string{"flush_onclose"}},
	FamilyTenants:   {nodes: [2]int{1, 2}, perNode: [2]int{3, 2}, flush: allFlush, discard: true},
	FamilyCorrupt:   {nodes: [2]int{1, 3}, perNode: [2]int{1, 2}, blockKB: []int64{16, 64, 128}, flush: []string{"flush_onclose", "flush_adaptive"}},
}

// Generate draws one scenario of family fam from rng. The same rng state
// always yields the same scenario, which is what makes a whole soak
// replayable from one master seed. The generated scenario always
// validates. Generate panics on a family outside Families.
func Generate(rng *rand.Rand, fam Family) Scenario {
	// One in four cache scenarios exercises the degraded-mode collective
	// path — lossy/duplicating links, network partitions, aggregator
	// crashes — instead of the cache stack.
	if fam == FamilyCache && rng.Intn(4) == 0 {
		fam = FamilyNetFaults
	}
	spec, ok := families[fam]
	if !ok {
		panic(fmt.Sprintf("chaos: unknown family %q", fam))
	}
	sc := Scenario{
		Nodes:     spec.nodes[0] + rng.Intn(spec.nodes[1]),
		PerNode:   spec.perNode[0] + rng.Intn(spec.perNode[1]),
		Shape:     []string{ShapeContiguous, ShapeInterleaved, ShapeStrided}[rng.Intn(3)],
		BlockKB:   64, // scenario-level workload fields are unused by tenants
		Blocks:    1,
		Mode:      "enable",
		FlushFlag: spec.flush[0],
		Sessions:  1,
	}
	if spec.blockKB != nil {
		sc.BlockKB = spec.blockKB[rng.Intn(len(spec.blockKB))]
		sc.Blocks = 1 + rng.Intn(4)
	}
	if len(spec.flush) > 1 {
		sc.FlushFlag = spec.flush[rng.Intn(len(spec.flush))]
	}
	if spec.discard {
		sc.Discard = rng.Intn(2) == 0
	}

	switch fam {
	case FamilyNetFaults:
		// A strided resilient write under 1..2 network faults. Mode stays
		// "enable": unused by the collective workload, kept valid.
		sc.Collective = true
		for n := 1 + rng.Intn(2); n > 0; n-- {
			sc.tryFault(randomNetAction(rng, sc.Nodes))
		}
	case FamilyCache:
		if rng.Intn(10) < 3 {
			sc.Mode = "coherent"
		}
		switch r := rng.Intn(10); {
		case r < 3: // crash + recovery
			sc.Sessions = 2
		case r < 5: // crash + recovery + idempotence probe
			sc.Sessions = 3
		}
		if sc.Sessions > 1 {
			// A recovery scenario needs something to recover from: crash one
			// node somewhere inside the write phase.
			sc.Faults = append(sc.Faults, Action{
				Kind: fault.CrashNode, Node: rng.Intn(sc.Nodes),
				FromUS: int64(1000 + rng.Intn(40_000)),
			})
		}
		for n := rng.Intn(4); n > 0; n-- {
			sc.tryFault(randomAction(rng, sc.Nodes))
		}
		// A windowed partition is safe for the cache stack too: it only cuts
		// the PFS fabric (Analytic collectives pass no messages), and the sync
		// thread's partition-exempt retries must ride it out.
		if sc.Nodes >= 2 && rng.Intn(4) == 0 {
			sc.tryFault(window(rng, Action{Kind: fault.Partition, Nodes: []int{rng.Intn(sc.Nodes)}}, 5_000, 30_000))
		}
	case FamilyCorrupt:
		sc.Sessions = 2 + rng.Intn(2)
		if rng.Intn(10) < 3 {
			sc.Mode = "coherent"
		}
		// Something to recover from: crash one node inside the write phase so
		// its journals retain unsynced extents.
		crash := Action{
			Kind: fault.CrashNode, Node: rng.Intn(sc.Nodes),
			FromUS: int64(1_000 + rng.Intn(30_000)),
		}
		sc.Faults = append(sc.Faults, crash)
		// ...then corrupt the crashed node's at-rest state shortly after. A
		// corruption landing after recovery already replayed is a harmless
		// no-op, so late times are safe, just less interesting.
		at := crash.FromUS + int64(100+rng.Intn(2_000))
		pick := rng.Intn(3) // 0: torn only, 1: rot only, 2: both
		if pick != 1 {
			sc.Faults = append(sc.Faults, Action{Kind: fault.TornWrite, Node: crash.Node, FromUS: at})
			at += int64(50 + rng.Intn(500))
		}
		if pick != 0 {
			sc.Faults = append(sc.Faults, Action{
				Kind: fault.BitRot, Node: crash.Node,
				Factor: 0.05 + 0.4*rng.Float64(), FromUS: at,
			})
		}
		for n := rng.Intn(3); n > 0; n-- {
			sc.tryFault(randomAction(rng, sc.Nodes))
		}
	case FamilyTenants:
		sc.carveTenants(rng)
		// Sprinkle 0..2 NVM-layer faults (transient ENOSPC, device failure).
		for n := rng.Intn(3); n > 0; n-- {
			kind := fault.DeviceENOSPC
			if rng.Intn(3) == 0 {
				kind = fault.FailDevice
			}
			a := Action{Kind: kind, Node: rng.Intn(sc.Nodes),
				FromUS: int64(1_000 + rng.Intn(30_000))}
			a.ToUS = a.FromUS + int64(2_000+rng.Intn(20_000))
			sc.tryFault(a)
		}
	}
	return sc
}

// tryFault appends a, dropping it again if the schedule no longer
// validates (same-kind overlap).
func (sc *Scenario) tryFault(a Action) {
	sc.Faults = append(sc.Faults, a)
	if sc.Schedule().Validate() != nil {
		sc.Faults = sc.Faults[:len(sc.Faults)-1]
	}
}

// window opens a at from + [0, spread) µs and heals it 5..45 ms later.
func window(rng *rand.Rand, a Action, from, spread int) Action {
	a.FromUS = int64(from + rng.Intn(spread))
	a.ToUS = a.FromUS + int64(5_000+rng.Intn(40_000))
	return a
}

// carveTenants splits the rank pool into 2..4 tenants contending for a
// deliberately undersized shared NVM, draws their capacity contracts, and
// crashes one of them mid-flush in half the scenarios.
func (sc *Scenario) carveTenants(rng *rand.Rand) {
	// Carve 2..4 tenants out of the rank pool, one rank minimum each.
	ranks := sc.ranks()
	nt := 2 + rng.Intn(3)
	if nt > ranks {
		nt = ranks
	}
	var total int64
	for i := 0; i < nt; i++ {
		spare := ranks - (nt - 1 - i) // leave one rank per remaining tenant
		t := TenantSpec{
			Ranks:   1 + rng.Intn(spare),
			Blocks:  1 + rng.Intn(3),
			BlockKB: []int64{16, 32, 64}[rng.Intn(3)],
		}
		ranks -= t.Ranks
		total += t.bytes()
		sc.Tenants = append(sc.Tenants, t)
	}
	// Undersize the device so the tenants genuinely contend: between half
	// and all of the combined footprint, floored at one tenant block.
	sc.SSDCapKB = (total >> 10) / 2
	sc.SSDCapKB += rng.Int63n(sc.SSDCapKB + 1)
	if sc.SSDCapKB < 1024 {
		sc.SSDCapKB = 1024
	}
	// Capacity contracts: some tenants get byte quotas, some reservations,
	// some queue for admission, some degrade to write-through.
	for i := range sc.Tenants {
		t := &sc.Tenants[i]
		if rng.Intn(2) == 0 {
			t.QuotaKB = t.bytes() >> 10 >> uint(rng.Intn(3)) // 1x, 1/2, 1/4 of footprint
			if t.QuotaKB < t.BlockKB {
				t.QuotaKB = t.BlockKB
			}
		}
		if rng.Intn(3) == 0 {
			t.ReserveKB = sc.SSDCapKB / int64(2*len(sc.Tenants))
			if t.QuotaKB > 0 && t.ReserveKB > t.QuotaKB {
				t.ReserveKB = t.QuotaKB
			}
		}
		if rng.Intn(3) == 0 {
			t.Admit = "queue"
		}
		if rng.Intn(3) == 0 {
			t.Policy = "writethrough"
		}
	}
	// Half the scenarios crash one tenant mid-flush.
	if rng.Intn(2) == 0 {
		sc.Tenants[rng.Intn(len(sc.Tenants))].CrashUS = int64(1_000 + rng.Intn(30_000))
	}
}

// randomNetAction draws one degraded-mode network fault.
func randomNetAction(rng *rand.Rand, nodes int) Action {
	switch rng.Intn(4) {
	case 0: // lossy link window
		return window(rng, Action{Kind: fault.LossyLink, Node: rng.Intn(nodes),
			Factor: 0.02 + 0.25*rng.Float64()}, 1_000, 20_000)
	case 1: // duplicating link window
		return window(rng, Action{Kind: fault.DupLink, Node: rng.Intn(nodes),
			Factor: 0.05 + 0.35*rng.Float64()}, 1_000, 20_000)
	case 2: // partition window: cut one node off, then heal
		return window(rng, Action{Kind: fault.Partition, Nodes: []int{rng.Intn(nodes)}}, 2_000, 20_000)
	default: // crash a node mid-write (aggregator failover when it hosts one)
		return Action{
			Kind: fault.CrashNode, Node: rng.Intn(nodes),
			FromUS: int64(1_000 + rng.Intn(40_000)),
		}
	}
}

// randomAction draws one non-crash fault action.
func randomAction(rng *rand.Rand, nodes int) Action {
	kinds := []fault.Kind{
		fault.FailDevice, fault.DeviceENOSPC, fault.FailTarget,
		fault.DegradeTarget, fault.DegradeLink,
	}
	a := Action{Kind: kinds[rng.Intn(len(kinds))]}
	a.FromUS = int64(500 + rng.Intn(60_000))
	if rng.Intn(2) == 0 {
		// Transient window, 1..50 ms wide.
		a.ToUS = a.FromUS + int64(1000+rng.Intn(50_000))
	}
	switch a.Kind {
	case fault.FailDevice, fault.DeviceENOSPC, fault.DegradeLink:
		a.Node = rng.Intn(nodes)
	case fault.FailTarget, fault.DegradeTarget:
		a.Target = rng.Intn(4)
	}
	if a.Kind == fault.DegradeTarget || a.Kind == fault.DegradeLink {
		a.Factor = 0.2 + 0.7*rng.Float64()
	}
	return a
}
