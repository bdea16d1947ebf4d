package chaos

import (
	"bytes"
	"fmt"

	"repro/internal/critpath"
	"repro/internal/extent"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// checkGranularity is the subrange size at which missing/corrupt bytes are
// attributed during conservation checking.
const checkGranularity = 4 << 10

// check runs every oracle against the finished simulation and assembles
// the Result. Violations are appended in fixed invariant order, so two
// runs of the same scenario produce byte-identical results.
func (r *run) check() *Result {
	applyInjection(r, phasePostRun)
	res := &Result{
		Scenario:  r.sc,
		WallNS:    int64(r.cl.Kernel.Now()),
		Events:    r.cl.Kernel.EventsDispatched(),
		AckedOps:  len(r.acked),
		Fallbacks: r.fallbacks,
	}
	if r.mreg != nil {
		snap := r.mreg.Snapshot()
		res.Metrics = &snap
	}
	add := func(inv, format string, args ...interface{}) {
		res.Violations = append(res.Violations, Violation{
			Invariant: inv, Detail: fmt.Sprintf(format, args...),
		})
	}

	// Liveness first: if the kernel aborted, the remaining oracles would
	// report a half-finished world's state, which is noise, not signal.
	// The stuck-collective check still runs — it names the ranks wedged
	// inside a collective, turning "the run hung" into a diagnosis.
	if r.runErr != nil {
		add(InvLiveness, "run did not terminate cleanly: %v", r.runErr)
		r.checkStuckCollective(add)
		return res
	}

	r.checkConservation(add)
	r.checkRecoveryEquivalence(add)
	r.checkIdempotence(add)
	r.checkLockRelease(add)
	r.checkTraceMetrics(add)
	r.checkCritPath(res, add)
	r.checkStuckCollective(add)
	if r.solo < 0 {
		// Solo baseline runs exist only to be digested by this very oracle;
		// re-checking them would recurse.
		r.checkTenantIsolation(add)
	}
	return res
}

// checkStuckCollective verifies the collective-call balance of every rank
// that is still alive: calls entered == calls completed. With collective
// timeouts armed, even a partitioned or bereaved collective must return
// (with a typed error) rather than strand its participants.
func (r *run) checkStuckCollective(add func(inv, format string, args ...interface{})) {
	w := r.cl.World
	for id := 0; id < w.Size(); id++ {
		if !w.Alive(id) {
			continue // a killed rank legitimately left collectives unfinished
		}
		if started, done := w.CollBalance(id); started != done {
			add(InvStuckCollective,
				"rank %d entered %d collective(s) but completed only %d", id, started, done)
		}
	}
}

// checkConservation enforces the two durability invariants over every
// acknowledged write, comparing the global file against the in-memory
// reference oracle:
//
//   - lost_ack: a rank that was never told about any error must find every
//     byte it wrote durable in the global file, payload-identical.
//   - byte_conservation: a rank that WAS told about an error may have
//     non-durable bytes, but each such byte must still be accounted for —
//     journalled for recovery with the payload intact in the retained
//     cache file. Bytes in neither place are silently lost.
func (r *run) checkConservation(add func(inv, format string, args ...interface{})) {
	// Per-file durable view (tenant scenarios spread writes over several
	// global files), built lazily.
	type fileView struct {
		st      store.Store
		durable *extent.Set
	}
	views := map[string]fileView{}
	view := func(path string) fileView {
		if v, ok := views[path]; ok {
			return v
		}
		v := fileView{durable: &extent.Set{}}
		if meta := r.cl.FS.Lookup(path); meta != nil {
			v.st = meta.Store()
			v.durable = v.st.Written()
		}
		views[path] = v
		return v
	}
	// Per-rank journal cover and cache payload reader, built lazily.
	journals := map[int]*extent.Set{}
	journalFor := func(rank int) *extent.Set {
		if s, ok := journals[rank]; ok {
			return s
		}
		s := &extent.Set{}
		if key := r.journalKey[rank]; key != "" {
			for _, e := range r.cl.CoreEnv.JournalExtents(key) {
				s.Add(e)
			}
		}
		journals[rank] = s
		return s
	}
	cacheBytes := func(rank int, off, n int64) []byte {
		name := r.cacheName[rank]
		if name == "" {
			return nil
		}
		cf, err := r.cl.NVMs[r.cacheNode[rank]].Open(name, false)
		if err != nil {
			return nil
		}
		buf := make([]byte, n)
		cf.Store().ReadAt(store.Bytes(buf, off), off, int64(len(buf)))
		return buf
	}
	// The scrub-loss ledger: ranges a recovery scrub condemned. It outlives
	// recovery opens that themselves died mid-replay, unlike the harvested
	// per-cache quarantine sets.
	scrubLost := map[int]*extent.Set{}
	scrubLostFor := func(rank int) *extent.Set {
		if s, ok := scrubLost[rank]; ok {
			return s
		}
		s := &extent.Set{}
		if key := r.journalKey[rank]; key != "" {
			for _, e := range r.cl.CoreEnv.ScrubLost(key) {
				s.Add(e)
			}
		}
		scrubLost[rank] = s
		return s
	}
	// cacheCorrupt reports whether the rank's cache store itself flags
	// corruption inside e — rot that landed after the last scrub, which no
	// oracle-visible scrub has condemned yet but the checksums still catch.
	cacheCorrupt := func(rank int, e extent.Extent) bool {
		name := r.cacheName[rank]
		if name == "" {
			return false
		}
		cf, err := r.cl.NVMs[r.cacheNode[rank]].Open(name, false)
		if err != nil {
			return false
		}
		integ, ok := cf.Store().(store.Integrity)
		if !ok {
			return false
		}
		return len(integ.VerifyExtent(e)) > 0
	}

	for _, rec := range r.acked {
		fv := view(rec.file)
		want := make([]byte, rec.ext.Len)
		r.refFor(rec.file).ReadAt(store.Bytes(want, rec.ext.Off), rec.ext.Off, int64(len(want)))
		got := make([]byte, rec.ext.Len)
		if fv.st != nil {
			fv.st.ReadAt(store.Bytes(got, rec.ext.Off), rec.ext.Off, int64(len(got)))
		}
		if fv.durable.Covers(rec.ext) && bytes.Equal(want, got) {
			continue // fully durable, payload-identical
		}
		if r.rankErr[rec.rank] == "" {
			add(InvLostAck,
				"rank %d write [%d,+%d) acked with no surfaced error, but bytes are not durable in %s",
				rec.rank, rec.ext.Off, rec.ext.Len, rec.file)
			continue
		}
		// The rank saw an error; every non-durable subrange must still be
		// recoverable: journalled, with matching payload in the cache file.
		j := journalFor(rec.rank)
		for off := rec.ext.Off; off < rec.ext.End(); off += checkGranularity {
			n := rec.ext.End() - off
			if n > checkGranularity {
				n = checkGranularity
			}
			lo := off - rec.ext.Off
			if fv.durable.Covers(extent.Extent{Off: off, Len: n}) && bytes.Equal(want[lo:lo+n], got[lo:lo+n]) {
				continue
			}
			// Subranges a scrub condemned are not silent loss: the scrub
			// detected the corruption, counted it, and degraded the range to
			// re-fetch/write-through. The recovery-equivalence oracle owns
			// the quarantine bookkeeping. The ledger (not just the harvested
			// quarantine view) matters: a recovery open can itself die
			// mid-replay, leaving no cache to harvest from.
			sub := extent.Extent{Off: off, Len: n}
			if r.quarantined[rec.rank].Covers(sub) || scrubLostFor(rec.rank).Covers(sub) {
				continue
			}
			if !j.Covers(sub) {
				add(InvConservation,
					"rank %d bytes [%d,+%d) neither durable nor journalled (rank error: %s)",
					rec.rank, off, n, r.rankErr[rec.rank])
				break
			}
			if cb := cacheBytes(rec.rank, off, n); cb == nil || !bytes.Equal(cb, want[lo:lo+n]) {
				// Payload rot the checksums can still catch is detected-not-
				// silent: the next recovery's scrub quarantines exactly these
				// chunks. Only undetectable divergence is a violation.
				if cacheCorrupt(rec.rank, sub) {
					continue
				}
				add(InvConservation,
					"rank %d bytes [%d,+%d) journalled but cache payload lost or corrupt",
					rec.rank, off, n)
				break
			}
		}
	}
}

// checkRecoveryEquivalence verifies scrub-and-repair recovery told the
// truth: every extent the replay reported restored is durable in the
// global file and byte-identical to the cache payload the replay copied
// from (its own source of truth — the reference-pattern comparison is
// conservation's business), and the quarantine stats agree with the
// quarantined extent sets. Quarantined subranges are excluded from the
// byte comparison — a range honestly replayed by one recovery may be
// legitimately quarantined by a later one when corruption strikes between
// the sessions — as are chunks the cache store currently flags corrupt
// (rot that landed after the last scrub, which no oracle-visible scrub
// ever judged). This is what stands between "recovery ran" and "recovery
// claims bytes it never actually restored".
func (r *run) checkRecoveryEquivalence(add func(inv, format string, args ...interface{})) {
	if r.recovered == nil {
		return
	}
	var st store.Store
	durable := &extent.Set{}
	if meta := r.cl.FS.Lookup(FilePath); meta != nil {
		st = meta.Store()
		durable = st.Written()
	}
	for rank := range r.recovered {
		rs, qs := r.recovered[rank], r.quarantined[rank]
		if rs.Len() == 0 && qs.Len() == 0 && r.quarBytes[rank] == 0 {
			continue
		}
		var cacheStore store.Store
		if name := r.cacheName[rank]; name != "" {
			if cf, err := r.cl.NVMs[r.cacheNode[rank]].Open(name, false); err == nil {
				cacheStore = cf.Store()
			}
		}
		// The excluded view: everything scrub quarantined plus whatever the
		// cache store flags corrupt right now.
		var excluded extent.Set
		for _, e := range qs.Extents() {
			excluded.Add(e)
		}
		if integ, ok := cacheStore.(store.Integrity); ok {
			for _, e := range rs.Extents() {
				for _, bad := range integ.VerifyExtent(e) {
					excluded.Add(bad)
				}
			}
		}
		for _, e := range rs.Extents() {
			for _, sub := range excluded.Gaps(e) {
				if !durable.Covers(sub) {
					add(InvRecoveryEquivalence,
						"rank %d recovered extent [%d,+%d) is not durable in %s", rank, sub.Off, sub.Len, FilePath)
					continue
				}
				got := make([]byte, sub.Len)
				if st != nil {
					st.ReadAt(store.Bytes(got, sub.Off), sub.Off, int64(len(got)))
				}
				want := make([]byte, sub.Len)
				if cacheStore != nil {
					cacheStore.ReadAt(store.Bytes(want, sub.Off), sub.Off, int64(len(want)))
				}
				if !bytes.Equal(got, want) {
					i := 0
					for i < len(got) && got[i] == want[i] {
						i++
					}
					add(InvRecoveryEquivalence,
						"rank %d recovered extent [%d,+%d) differs from the replayed cache payload at offset %d",
						rank, sub.Off, sub.Len, sub.Off+int64(i))
				}
			}
		}
		if (qs.Len() > 0) != (r.quarBytes[rank] > 0) {
			add(InvRecoveryEquivalence,
				"rank %d quarantine bookkeeping inconsistent: %d quarantined extent(s) vs %d stat byte(s)",
				rank, qs.Len(), r.quarBytes[rank])
		}
	}
}

// checkIdempotence compares the global file's bytes over the crash
// session's journal before and after the second replay. Replay-twice ==
// replay-once only holds when nothing corrupts the cache between the two
// replays, so the check stands down when a corruption fault fired at or
// after the first recovery began — the scrub's verdicts then legitimately
// differ between the sessions (the deliberate corrupt-replay injection
// stages its corruption without a fault, so it is still caught).
func (r *run) checkIdempotence(add func(inv, format string, args ...interface{})) {
	if !r.staged {
		return
	}
	for _, a := range r.sc.Faults {
		if (a.Kind == fault.TornWrite || a.Kind == fault.BitRot) &&
			int64(sim.Time(a.FromUS)*sim.Microsecond) >= r.recoverStartNS {
			return
		}
	}
	if !bytes.Equal(r.idemA, r.idemB) {
		i := 0
		for i < len(r.idemA) && r.idemA[i] == r.idemB[i] {
			i++
		}
		add(InvIdempotence,
			"global file differs after second journal replay (first diff at journal byte %d of %d)",
			i, len(r.idemA))
	}
}

// checkLockRelease verifies no byte-range lock outlives the run, on any
// global file the scenario can touch.
func (r *run) checkLockRelease(add func(inv, format string, args ...interface{})) {
	for _, path := range r.files() {
		if held := r.cl.FS.Locks.HeldLocks(path); held != 0 {
			add(InvLockRelease, "%d byte-range lock(s) on %s still held after the run", held, path)
		}
	}
}

// checkCritPath runs the critical-path analyzer over the run's trace and
// enforces its self-consistency contract: attributed time sums exactly to
// the virtual wall time (an event outliving the run means the trace and
// the kernel disagree about when the run ended), the per-category shares
// partition the attributed total, and every message edge the path followed
// is backed by a matching async begin/end pair in the trace.
func (r *run) checkCritPath(res *Result, add func(inv, format string, args ...interface{})) {
	wall := int64(r.cl.Kernel.Now())
	rep := critpath.Analyze(r.tracer, wall)
	res.CritPath, res.Trace = rep, r.tracer
	if rep.AttributedNs != wall {
		add(InvCritPath, "attributed path time %d ns != virtual wall time %d ns", rep.AttributedNs, wall)
	}
	var sum int64
	for _, sh := range rep.Shares {
		sum += sh.Ns
	}
	if sum != rep.AttributedNs {
		add(InvCritPath, "category shares sum to %d ns, want attributed total %d ns", sum, rep.AttributedNs)
	}
	type pairEv struct {
		beginTk, endTk trace.TrackID
		beginTs, endTs int64
		haveB, haveE   bool
	}
	pairs := map[uint64]*pairEv{}
	for _, ev := range r.tracer.Events() {
		switch ev.Kind {
		case trace.KindAsyncBegin, trace.KindAsyncEnd:
			p := pairs[ev.ID]
			if p == nil {
				p = &pairEv{}
				pairs[ev.ID] = p
			}
			if ev.Kind == trace.KindAsyncBegin {
				p.beginTk, p.beginTs, p.haveB = ev.Track, ev.Start, true
			} else {
				p.endTk, p.endTs, p.haveE = ev.Track, ev.Start, true
			}
		}
	}
	for _, e := range rep.Edges {
		p := pairs[e.ID]
		if p == nil || !p.haveB || !p.haveE ||
			p.beginTs != e.SendNs || p.endTs != e.RecvNs ||
			r.tracer.TrackName(p.beginTk) != e.From || r.tracer.TrackName(p.endTk) != e.To {
			add(InvCritPath, "path edge id=%d %s@%d -> %s@%d has no matching async pair in the trace",
				e.ID, e.From, e.SendNs, e.To, e.RecvNs)
		}
	}
}

// checkTraceMetrics cross-checks the three independent records of sync
// retries: traced retry instants, the metrics counter, and the per-cache
// stats. Any divergence means one observability layer lies.
func (r *run) checkTraceMetrics(add func(inv, format string, args ...interface{})) {
	var traced int64
	for _, ev := range r.tracer.Events() {
		if ev.Kind == trace.KindInstant && ev.Name == "sync_retry" {
			traced++
		}
	}
	counted := r.mreg.Counter("cache_sync_retries_total", metrics.L(metrics.KeyLayer, "core")).Total()
	var stats int64
	for _, c := range r.caches {
		stats += c.Stats.SyncRetries
	}
	if traced != counted || counted != stats {
		add(InvTraceMetrics,
			"sync retries disagree: %d traced instants, %d in cache_sync_retries_total, %d in cache stats",
			traced, counted, stats)
	}
}
