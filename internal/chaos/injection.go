package chaos

import (
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// Injections deliberately sabotage a run so the oracle that should catch
// the sabotage can be regression-tested (the committed repro fixtures pin
// one injection per invariant class). They model the bug classes the
// explorer exists to find; a checker that stays green under its injection
// is a checker that would miss the real bug.
type injPhase int

const (
	phasePreRun   injPhase = iota // before the kernel runs
	phaseSession1                 // rank 0, right after the first open
	phaseStaging                  // rank 0, between the two recoveries
	phasePostRun                  // after the kernel, before the oracles
)

// injections maps each injection name to the phase it fires in and the
// invariant it must trip.
var injections = map[string]struct {
	phase injPhase
	trips string
}{
	// Drop every retained journal: a crashed rank's unsynced bytes become
	// untraceable — byte conservation must notice the hole.
	"lose-journal": {phasePostRun, InvConservation},
	// Corrupt durable bytes of a rank that was told everything succeeded.
	"lost-ack": {phasePostRun, InvLostAck},
	// Corrupt the cache payload between the two replays: the second replay
	// writes different bytes, so recover-twice != recover-once.
	"corrupt-replay": {phaseStaging, InvIdempotence},
	// Take a byte-range lock on the global file and never release it.
	"leak-lock": {phaseSession1, InvLockRelease},
	// Spin a process that re-arms forever: the event queue never drains
	// and the liveness watchdog must abort the run.
	"stall": {phasePreRun, InvLiveness},
	// Bump the retry counter without a matching traced retry.
	"miscount-retry": {phasePostRun, InvTraceMetrics},
	// Skew rank 0's collective accounting, as if it entered a collective
	// and never came back — the no_stuck_collective oracle must notice.
	"stuck-collective": {phasePostRun, InvStuckCollective},
	// Append a span that outlives the run: the critical path now attributes
	// more time than the kernel's wall clock, so the attribution-sums-to-
	// wall-time contract of critpath_consistency must trip.
	"overrun-span": {phasePostRun, InvCritPath},
	// Leak one tenant's pattern into another tenant's file: the victim's
	// digest no longer matches its solo same-seed run, which is exactly
	// what the tenant_isolation oracle exists to catch.
	"cross-tenant-scribble": {phasePostRun, InvTenantIsolation},
	// Flip one durable byte inside an extent the recovery replay claims to
	// have restored: scrub-and-repair said the data is back, so the
	// recovery_equivalence oracle must notice the bytes lie.
	"silent-corrupt": {phasePostRun, InvRecoveryEquivalence},
}

// applyInjection fires the scenario's injection if it belongs to phase.
// mr is the acting rank for in-run phases.
func applyInjection(r *run, phase injPhase, mr ...*mpi.Rank) {
	inj, ok := injections[r.sc.Injection]
	if !ok || inj.phase != phase {
		return
	}
	switch r.sc.Injection {
	case "lose-journal":
		for _, key := range r.cl.CoreEnv.JournalKeys() {
			r.cl.CoreEnv.ClearJournal(key)
		}
	case "lost-ack":
		// Flip durable bytes under the first acked write of a rank that
		// saw no error — its ack is now a lie.
		for _, rec := range r.acked {
			if r.rankErr[rec.rank] != "" {
				continue
			}
			meta := r.cl.FS.Lookup(rec.file)
			if meta == nil {
				continue
			}
			n := rec.ext.Len
			if n > 64 {
				n = 64
			}
			junk := make([]byte, n)
			for i := range junk {
				junk[i] = ^pattern(rec.rank, rec.ext.Off+int64(i))
			}
			meta.Store().WriteAt(store.Bytes(junk, rec.ext.Off), rec.ext.Off, n)
			return
		}
	case "corrupt-replay":
		// One byte of cache payload under the first re-staged journal
		// extent; the second replay propagates it to the global file.
		for _, key := range r.idemKeys {
			exts := r.idemJ[key]
			if len(exts) == 0 {
				continue
			}
			for rank, k := range r.journalKey {
				if k != key {
					continue
				}
				cf, err := r.cl.NVMs[r.cacheNode[rank]].Open(r.cacheName[rank], false)
				if err != nil {
					continue
				}
				off := exts[0].Off
				b := []byte{^pattern(rank, off)}
				cf.Store().WriteAt(store.Bytes(b, off), off, 1)
				return
			}
		}
	case "leak-lock":
		// An extent far past the workload so the leak never blocks anyone.
		r.cl.FS.Locks.Acquire(mr[0].Proc(), FilePath, pfs.WriteLock,
			extent.Extent{Off: 1 << 40, Len: 4096})
	case "stall":
		r.cl.Kernel.Spawn("chaos.stall", func(p *sim.Proc) {
			for {
				p.Sleep(10 * sim.Microsecond)
			}
		})
	case "miscount-retry":
		r.mreg.Counter("cache_sync_retries_total", metrics.L(metrics.KeyLayer, "core")).Inc()
	case "stuck-collective":
		r.cl.World.SkewCollAccounting(0)
	case "overrun-span":
		now := int64(r.cl.Kernel.Now())
		tk := r.tracer.Track(trace.GroupKernel, "chaos.overrun")
		r.tracer.SpanAt(tk, "chaos", "overrun", now, now+int64(sim.Millisecond))
	case "cross-tenant-scribble":
		// Write 64 bytes of tenant 0's pattern just past the last tenant's
		// own data — a foreign byte inside the victim's namespace that no
		// acked-write oracle covers, only the isolation digest.
		victim := len(r.sc.Tenants) - 1
		meta := r.cl.FS.Lookup(tenantFile(victim))
		if meta == nil {
			return
		}
		var span int64
		t := r.sc.Tenants[victim]
		for lr := 0; lr < t.Ranks; lr++ {
			for b := 0; b < t.Blocks; b++ {
				if end := offsetFor(r.sc.Shape, t.Ranks, t.Blocks, lr, b, t.BlockKB<<10) + t.BlockKB<<10; end > span {
					span = end
				}
			}
		}
		meta.Store().WriteAt(store.Bytes(patternBuf(0, span, 64), span), span, 64)
	case "silent-corrupt":
		// One durable byte under the first recovered extent of the first
		// rank whose recovery replayed anything.
		for rank := range r.recovered {
			exts := r.recovered[rank].Extents()
			if len(exts) == 0 {
				continue
			}
			meta := r.cl.FS.Lookup(FilePath)
			if meta == nil {
				return
			}
			off := exts[0].Off
			meta.Store().WriteAt(store.Bytes([]byte{^pattern(rank, off)}, off), off, 1)
			return
		}
	}
}
