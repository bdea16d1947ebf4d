package chaos

import (
	"fmt"
	"sort"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/extent"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// FilePath is the shared global file every scenario writes.
const FilePath = "chaos.dat"

// Violation is one oracle failure.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// The invariant registry. Every violation names one of these.
const (
	InvConservation = "byte_conservation"   // every acked byte durable or journalled
	InvLostAck      = "lost_ack"            // success reported, bytes gone
	InvIdempotence  = "journal_idempotence" // recover twice == recover once
	InvLockRelease  = "lock_release"        // no byte-range lock survives the run
	InvLiveness     = "liveness"            // the run terminates (no deadlock/livelock)
	InvTraceMetrics = "trace_metrics"       // retry counters match traced retries
	// InvStuckCollective demands every surviving rank left every collective
	// it entered — by completing it or by a surfaced timeout, never by
	// parking forever while the rest of the run moves on.
	InvStuckCollective = "no_stuck_collective"
	// InvTenantIsolation demands that in a multi-tenant run, every tenant
	// not deliberately faulted (crashed, or hosted on a faulted node) ends
	// with its file byte-identical to a solo same-seed run of just that
	// tenant, and that capacity pressure alone never fails its job.
	InvTenantIsolation = "tenant_isolation"
	// InvCritPath demands the critical-path analysis be self-consistent
	// with the run it describes: the attributed path time sums exactly to
	// the virtual wall time (no trace event may outlive the run), the
	// category shares sum to the attributed total, and every message edge
	// on the path is backed by a matching async begin/end pair in the
	// trace.
	InvCritPath = "critpath_consistency"
	// InvRecoveryEquivalence demands scrub-and-repair recovery be honest:
	// every extent the replay claims to have restored must be durable in
	// the global file and byte-identical to the clean same-seed payload,
	// no range may be both recovered and quarantined, and the quarantine
	// stats must agree with the quarantined extent set.
	InvRecoveryEquivalence = "recovery_equivalence"
)

// Invariants lists every checked invariant, in report order.
var Invariants = []string{
	InvConservation, InvLostAck, InvIdempotence,
	InvLockRelease, InvLiveness, InvTraceMetrics, InvStuckCollective,
	InvTenantIsolation, InvCritPath, InvRecoveryEquivalence,
}

// Result is one executed scenario's verdict.
type Result struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations"`
	WallNS     int64       `json:"wall_ns"`
	Events     int64       `json:"events"`
	AckedOps   int         `json:"acked_ops"`
	Fallbacks  int         `json:"fallbacks"`

	// CritPath is the analysis the critpath_consistency oracle ran, and
	// Trace the run's tracer it read (e10chaos builds the run timeline
	// from it on demand). Both are excluded from the JSON so repro
	// fixtures and soak report digests stay byte-identical.
	CritPath *critpath.Report `json:"-"`
	Trace    *trace.Tracer    `json:"-"`

	// Metrics is the run's full metric snapshot (recovery and scrub
	// counters included), for e10chaos -metrics-out. Excluded from the
	// JSON for the same reason as CritPath.
	Metrics *metrics.Snapshot `json:"-"`
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// ViolatedInvariants returns the sorted, deduplicated invariant names.
func (r *Result) ViolatedInvariants() []string {
	seen := map[string]bool{}
	for _, v := range r.Violations {
		seen[v.Invariant] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeRec records one acknowledged (error-free) WriteContig.
type writeRec struct {
	rank int
	ext  extent.Extent
	file string // global file the write targeted
}

// run carries one scenario's execution state from setup through oracles.
type run struct {
	sc     Scenario
	cl     *harness.Cluster
	tracer *trace.Tracer
	mreg   *metrics.Registry
	ref    map[string]store.Store // per file: what SHOULD be durable

	live   []map[*core.Cache]bool // per node: caches currently open
	caches []*core.Cache          // every cache ever installed

	// Multi-tenant state. solo >= 0 restricts the run to that one tenant
	// (the isolation oracle's contention-free baseline).
	solo         int
	tenantCaches [][]*core.Cache // per tenant: every cache it ever opened

	acked      []writeRec
	rankErr    []string // first surfaced error per rank ("" = clean run)
	cacheName  []string // per rank: cache file path ("" if never cached)
	cacheNode  []int    // per rank: node index
	journalKey []string // per rank: journal registry key

	idemKeys []string                   // journal keys snapshotted after the crash session
	idemJ    map[string][]extent.Extent // their extents
	idemA    []byte                     // PFS bytes over idemJ after first recovery
	idemB    []byte                     // ... after second recovery
	staged   bool                       // idempotence probe actually ran

	// Scrub-and-repair accounting, per rank: ranges the recovery replay
	// restored to the global file, ranges scrub quarantined as corrupt,
	// and the cumulative quarantined byte count from the cache stats.
	// recoverStartNS is the virtual time the first recovery open began —
	// the oracle boundary between "corruption the scrub had to catch" and
	// "corruption racing the replay itself".
	recovered      []*extent.Set
	quarantined    []*extent.Set
	quarBytes      []int64
	recoverStartNS int64

	fallbacks int   // recovery opens that reverted to the standard path
	runErr    error // kernel verdict: nil, deadlock, or event budget
}

// pattern computes the chaos workload's deterministic payload byte for an
// absolute file offset written by rank.
func pattern(rank int, off int64) byte {
	return byte(int64(rank)*151 + off*11 + 29)
}

func patternBuf(rank int, off, size int64) []byte {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = pattern(rank, off+int64(i))
	}
	return buf
}

// Execute runs one scenario end to end — build the cluster, arm the fault
// schedule, run every session, then check every oracle — and returns its
// verdict. It errors only on an invalid scenario; invariant failures are
// reported in the Result.
func Execute(sc Scenario) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	r := &run{sc: sc, solo: -1}
	if err := r.setup(); err != nil {
		return nil, err
	}
	r.simulate()
	return r.check(), nil
}

// refFor returns (creating on demand) the in-memory reference store for
// one global file.
func (r *run) refFor(path string) store.Store {
	if s, ok := r.ref[path]; ok {
		return s
	}
	s := store.NewMem()
	r.ref[path] = s
	return s
}

// files returns every global file path the scenario can touch.
func (r *run) files() []string {
	out := []string{FilePath}
	for i := range r.sc.Tenants {
		out = append(out, tenantFile(i))
	}
	return out
}

// setup assembles the cluster, observability, crash hook and fault
// schedule.
func (r *run) setup() error {
	cfg := harness.Scaled(r.sc.Seed, r.sc.Nodes, r.sc.PerNode)
	cfg.Payload = true // oracles compare real bytes
	if r.sc.SSDCapKB > 0 {
		cfg.SSD.Capacity = r.sc.SSDCapKB << 10
	}
	r.cl = harness.NewCluster(cfg)
	r.tracer = trace.New()
	r.mreg = metrics.New()
	r.cl.Kernel.SetTracer(r.tracer)
	r.cl.Kernel.SetMetrics(r.mreg)
	budget := r.sc.EventBudget
	if budget <= 0 {
		budget = DefaultEventBudget
	}
	r.cl.Kernel.SetEventBudget(budget)

	r.ref = make(map[string]store.Store)
	r.tenantCaches = make([][]*core.Cache, len(r.sc.Tenants))
	ranks := r.sc.ranks()
	r.rankErr = make([]string, ranks)
	r.cacheName = make([]string, ranks)
	r.cacheNode = make([]int, ranks)
	r.journalKey = make([]string, ranks)
	r.recovered = make([]*extent.Set, ranks)
	r.quarantined = make([]*extent.Set, ranks)
	r.quarBytes = make([]int64, ranks)
	for i := 0; i < ranks; i++ {
		r.recovered[i] = &extent.Set{}
		r.quarantined[i] = &extent.Set{}
	}
	r.live = make([]map[*core.Cache]bool, r.sc.Nodes)
	for i := range r.live {
		r.live[i] = make(map[*core.Cache]bool)
	}
	r.cl.OnCrash = func(node int) {
		for c := range r.live[node] {
			c.Crash()
		}
		if r.sc.Collective {
			// Degraded-mode scenarios model the whole node dying: its MPI
			// ranks unwind too, and the survivors must fail over.
			r.cl.World.KillNode(node)
		}
	}
	if r.sc.Collective {
		// The degraded-mode stack: retransmitting transport plus bounded
		// collectives, so lost messages and partitions surface as typed
		// errors instead of deadlocks. The timeout must exceed one
		// two-phase round's aggregator I/O at the chaos block sizes.
		r.cl.World.EnableReliable()
		r.cl.World.SetCollTimeout(harness.DefaultCollTimeout)
	}
	if _, err := r.cl.ArmFaults(r.sc.Schedule()); err != nil {
		return fmt.Errorf("chaos: arming schedule: %w", err)
	}
	applyInjection(r, phasePreRun)
	return nil
}

// fail records a surfaced error for rank (first error wins — it is the one
// the application would have acted on).
func (r *run) fail(rank int, session string, err error) {
	if err != nil && r.rankErr[rank] == "" {
		r.rankErr[rank] = session + ": " + err.Error()
	}
}

// hints returns the MPI_Info a session opens with: uncached with resilient
// two-phase hints in collective scenarios, otherwise the cache hints plus,
// for ti >= 0, tenant ti's capacity contract. recovery selects the
// e10_cache_recovery + retain-cache hint set of sessions 2-3.
func (sc *Scenario) hints(ti int, recovery bool) mpi.Info {
	if sc.Collective {
		return mpi.Info{
			adio.HintCBNodes:        "2",
			adio.HintCBBufferSize:   "1048576",
			adio.HintResilientWrite: "enable",
		}
	}
	info := mpi.Info{
		adio.HintCBWrite:   "enable",
		core.HintCache:     sc.Mode,
		core.HintFlushFlag: sc.FlushFlag,
	}
	if recovery {
		info[core.HintCacheRecovery] = "enable"
		info[core.HintDiscardFlag] = "disable"
	} else if !sc.Discard {
		info[core.HintDiscardFlag] = "disable"
	}
	if ti >= 0 {
		t := sc.Tenants[ti]
		info[core.HintTenant] = tenantName(ti)
		if t.QuotaKB > 0 {
			info[core.HintTenantQuotaBytes] = fmt.Sprintf("%d", t.QuotaKB<<10)
		}
		if t.ReserveKB > 0 {
			info[core.HintTenantReserve] = fmt.Sprintf("%d", t.ReserveKB<<10)
		}
		if t.Admit != "" {
			info[core.HintTenantAdmit] = t.Admit
		}
		if t.Policy != "" {
			info[core.HintTenantPolicy] = t.Policy
		}
	}
	return info
}

// open performs one collective open over comm with the session's hints
// (Scenario.hints) and, for ti >= 0, tenant ti's file.
func (r *run) open(mr *mpi.Rank, comm *mpi.Comm, ti int, recovery bool) (*adio.File, error) {
	args := adio.OpenArgs{Comm: comm, Registry: r.cl.Env.Registry, Path: FilePath, Create: true,
		Info: r.sc.hints(ti, recovery)}
	if !r.sc.Collective {
		if ti >= 0 {
			args.Path = tenantFile(ti)
		}
		args.Hooks = r.cl.CoreEnv.HooksFactory()
	}
	f, err := adio.OpenColl(mr, args)
	if err != nil {
		return nil, err
	}
	if ti >= 0 && f.Stats.CacheFallback {
		r.fallbacks++ // e.g. a rejected admission: the job runs uncached
	}
	if c, ok := f.InstalledHooks().(*core.Cache); ok && c != nil {
		node := mr.Node().ID()
		r.live[node][c] = true
		r.caches = append(r.caches, c)
		if ti >= 0 {
			r.tenantCaches[ti] = append(r.tenantCaches[ti], c)
		}
		r.cacheName[mr.ID()] = c.Name()
		r.cacheNode[mr.ID()] = node
		r.journalKey[mr.ID()] = c.JournalKey()
	}
	return f, nil
}

// close closes f and unregisters its cache from the crash registry.
func (r *run) close(f *adio.File, mr *mpi.Rank) error {
	c, _ := f.InstalledHooks().(*core.Cache)
	err := f.Close()
	if c != nil {
		delete(r.live[mr.Node().ID()], c)
	}
	return err
}

// write issues rank me's workload on f — in tenant ti's file when ti >= 0
// — and records every acknowledged block. Cached scenarios issue one
// WriteContig per block. Collective scenarios issue one resilient
// two-phase WriteStridedColl covering every block: a nil return means
// every byte was acked through round-acks, which is exactly what the
// conservation oracle then checks against the global file.
func (r *run) write(f *adio.File, me, ti int) {
	path, ranks, blocks, rank, bs := FilePath, r.sc.ranks(), r.sc.Blocks, me, r.sc.BlockKB<<10
	if ti >= 0 {
		t := r.sc.Tenants[ti]
		path, ranks, blocks, rank, bs = tenantFile(ti), t.Ranks, t.Blocks, me-r.sc.tenantStart(ti), t.BlockKB<<10
	}
	ack := func(off int64, data []byte) {
		r.acked = append(r.acked, writeRec{rank: me, ext: extent.Extent{Off: off, Len: bs}, file: path})
		r.refFor(path).WriteAt(store.Bytes(data, off), off, bs)
	}
	if !r.sc.Collective {
		for b := 0; b < blocks; b++ {
			off := offsetFor(r.sc.Shape, ranks, blocks, rank, b, bs)
			data := patternBuf(me, off, bs)
			if err := f.WriteContig(store.Bytes(data, off), off, bs); err != nil {
				r.fail(me, "write", err)
			} else {
				ack(off, data)
			}
		}
		return
	}
	segs := make([]extent.Extent, blocks)
	var data []byte
	for b := range segs {
		segs[b] = extent.Extent{Off: offsetFor(r.sc.Shape, ranks, blocks, rank, b, bs), Len: bs}
		data = append(data, patternBuf(me, segs[b].Off, bs)...)
	}
	if err := f.WriteStridedColl(segs, data); err != nil {
		r.fail(me, "write", err)
		return
	}
	for b, s := range segs {
		ack(s.Off, data[int64(b)*bs:][:bs])
	}
}

// simulate runs every session of the scenario inside one kernel run. All
// ranks execute the same collective structure unconditionally — OpenColl
// contains barriers, so the session count must be scenario-driven, never
// runtime-state-driven.
//
// Tenant scenarios split the world into one communicator per tenant (idle
// ranks, and muted tenants in a solo baseline run, sit out); every other
// scenario runs on the world communicator. Tenant crashes fire from kernel
// timers and kill only that tenant's open caches — the node, and every
// other tenant on it, keeps running.
func (r *run) simulate() {
	sc := r.sc
	world := r.cl.World.Comm()
	for i, t := range sc.Tenants {
		if t.CrashUS <= 0 {
			continue
		}
		i, t := i, t
		r.cl.Kernel.Spawn(fmt.Sprintf("chaos.tenant.%d.crash", i), func(p *sim.Proc) {
			p.Sleep(sim.Time(t.CrashUS) * sim.Microsecond)
			for _, c := range r.tenantCaches[i] {
				if r.liveCache(c) {
					c.Crash()
				}
			}
		})
	}
	r.runErr = r.cl.World.Run(func(mr *mpi.Rank) {
		me := mr.ID()
		comm, ti := world, -1
		if len(sc.Tenants) > 0 {
			ti = sc.tenantOf(me)
			color := ti
			if ti < 0 || (r.solo >= 0 && ti != r.solo) {
				color = -1 // idle rank, or muted tenant in a solo baseline run
			}
			if comm = world.Split(mr, color, me); comm == nil {
				return
			}
		}

		// Session 1: the write workload.
		f, err := r.open(mr, comm, ti, false)
		if err != nil {
			r.fail(me, "open", err)
		} else {
			if me == 0 {
				applyInjection(r, phaseSession1, mr)
			}
			r.write(f, me, ti)
			if cerr := r.close(f, mr); cerr != nil {
				r.fail(me, "close", cerr)
			}
		}
		if sc.Sessions < 2 {
			return
		}

		// Session 2: recovery open. Rank 0 snapshots the crash session's
		// journals between two barriers, before any rank can replay them.
		world.Barrier(mr)
		if me == 0 && sc.Sessions >= 3 {
			r.idemKeys = r.cl.CoreEnv.JournalKeys()
			r.idemJ = make(map[string][]extent.Extent, len(r.idemKeys))
			for _, k := range r.idemKeys {
				r.idemJ[k] = r.cl.CoreEnv.JournalExtents(k)
			}
		}
		world.Barrier(mr)
		r.runSession(mr, "recover1")
		if sc.Sessions < 3 {
			return
		}

		// Session 3: re-stage the journal (modelling a crash that lost the
		// journal trim after the data was already durable) and recover
		// again. The global file must come out byte-identical.
		world.Barrier(mr)
		if me == 0 && len(r.idemKeys) > 0 {
			r.idemA = r.snapshotPFS()
			for _, k := range r.idemKeys {
				r.cl.CoreEnv.RestoreJournal(k, r.stagedExtents(k))
			}
			applyInjection(r, phaseStaging)
			r.staged = true
		}
		world.Barrier(mr)
		r.runSession(mr, "recover2")
		world.Barrier(mr)
		if me == 0 && r.staged {
			r.idemB = r.snapshotPFS()
		}
	})
}

// runSession performs one recovery open/close round.
func (r *run) runSession(mr *mpi.Rank, tag string) {
	if r.recoverStartNS == 0 {
		r.recoverStartNS = int64(r.cl.Kernel.Now())
	}
	f, err := r.open(mr, r.cl.World.Comm(), -1, true)
	if err != nil {
		r.fail(mr.ID(), tag+"/open", err)
		return
	}
	if f.Stats.CacheFallback {
		r.fallbacks++
	}
	if c, ok := f.InstalledHooks().(*core.Cache); ok && c != nil {
		// Harvest the open's scrub-and-repair verdicts while the cache is
		// live: what the replay restored and what scrub quarantined.
		me := mr.ID()
		for _, e := range c.Recovered() {
			r.recovered[me].Add(e)
		}
		for _, e := range c.Quarantined() {
			r.quarantined[me].Add(e)
		}
		r.quarBytes[me] += c.Stats.QuarantinedBytes
	}
	if err := r.close(f, mr); err != nil {
		r.fail(mr.ID(), tag+"/close", err)
	}
}

// stagedExtents returns the crash-session journal extents to re-stage
// under key for the idempotence probe, minus whatever the first recovery's
// scrub quarantined. The probe models a crash that lost the journal TRIM
// after the data landed — quarantined ranges were never replayed, so no
// trim of theirs could have been lost, and re-staging them would resurrect
// data the scrub already condemned.
func (r *run) stagedExtents(key string) []extent.Extent {
	exts := r.idemJ[key]
	for rank, k := range r.journalKey {
		if k != key || r.quarantined[rank].Len() == 0 {
			continue
		}
		var kept []extent.Extent
		for _, e := range exts {
			kept = append(kept, r.quarantined[rank].Gaps(e)...)
		}
		exts = kept
	}
	return exts
}

// snapshotPFS reads the global file's bytes over every snapshotted journal
// extent, in deterministic (key, extent) order.
func (r *run) snapshotPFS() []byte {
	var out []byte
	meta := r.cl.FS.Lookup(FilePath)
	for _, k := range r.idemKeys {
		for _, e := range r.idemJ[k] {
			buf := make([]byte, e.Len)
			if meta != nil {
				meta.Store().ReadAt(store.Bytes(buf, e.Off), e.Off, int64(len(buf)))
			}
			out = append(out, buf...)
		}
	}
	return out
}
