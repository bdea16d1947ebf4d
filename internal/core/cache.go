package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// ErrCrashed is returned by cache operations on a crashed node; the cache
// file and its journal are retained for recovery at the next open.
var ErrCrashed = errors.New("core: node crashed; cache file retained for recovery")

// Env wires the cache layer into a simulated cluster: where each node's
// local file system lives and which lock manager guards the global file
// (for e10_cache=coherent).
type Env struct {
	// LocalFS returns the node-local cache file system, or nil when the
	// node has no usable local storage (the open then falls back to the
	// standard path, as the paper requires).
	LocalFS func(node int) *nvm.FS
	// Locks is the global file's byte-range lock manager, used by the
	// coherent mode (ADIOI_WRITE_LOCK / ADIOI_UNLOCK).
	Locks *pfs.LockManager
	// SkipSync disables the background synchronisation entirely. This is
	// the evaluation's "TBW Cache Enable" case: writing to the cache
	// without flushing, measuring the theoretical bandwidth with the sync
	// cost fully hidden.
	SkipSync bool

	// journals maps a cache file (node + cache path) to its dirty-extent
	// journal: the extents written to the cache but not yet synced to the
	// global file, kept as checksummed commit records (see journal.go).
	// Like the cache file itself, the journal outlives the open (it models
	// a journal kept on the NVM device), which is what makes crash
	// recovery possible.
	journals map[string]*Journal

	// scrubLost is the cumulative scrub-loss ledger: every range a
	// recovery scrub ever condemned (torn/rotted journal records, cache
	// chunks failing their checksum), per journal key. Unlike the live
	// Cache's quarantine set it survives a recovery open that itself dies
	// mid-replay, so external oracles can always distinguish detected
	// corruption from silent loss.
	scrubLost map[string]*extent.Set

	// meters holds the cache layer's metric handles, shared by every cache
	// of this Env (see Cache.meters).
	meters *cacheMetrics
}

// journal returns (creating on demand) the dirty-extent journal for key.
func (e *Env) journal(key string) *Journal {
	if e.journals == nil {
		e.journals = make(map[string]*Journal)
	}
	s, ok := e.journals[key]
	if !ok {
		s = &Journal{}
		e.journals[key] = s
	}
	return s
}

// dropJournal discards the journal for key (the cache file was removed).
func (e *Env) dropJournal(key string) {
	delete(e.journals, key)
}

// noteScrubLoss records ranges a recovery scrub condemned under key.
func (e *Env) noteScrubLoss(key string, exts []extent.Extent) {
	if len(exts) == 0 {
		return
	}
	if e.scrubLost == nil {
		e.scrubLost = make(map[string]*extent.Set)
	}
	s, ok := e.scrubLost[key]
	if !ok {
		s = &extent.Set{}
		e.scrubLost[key] = s
	}
	for _, x := range exts {
		s.Add(x)
	}
}

// optionsKey keys the Options memoized on a communicator by the shared
// hint set they were parsed from.
type optionsKey struct{ h *adio.Hints }

// parsedOptions is the outcome of parsing one hint set's e10_* hints.
type parsedOptions struct {
	opts Options
	err  error
}

// HooksFactory returns the adio hook factory that installs a cache on
// files opened with e10_cache set to enable or coherent. The options are
// parsed once per communicator and shared hint set, and every rank's cache
// shares them read-only.
func (e *Env) HooksFactory() adio.HooksFactory {
	return func(f *adio.File) (adio.Hooks, error) {
		h := f.Hints()
		p := f.Comm().Memo(optionsKey{h}, func() any {
			opts, err := ParseOptions(h.Extra)
			return &parsedOptions{opts, err}
		}).(*parsedOptions)
		if p.err != nil {
			return nil, p.err
		}
		if !p.opts.Enabled() {
			return nil, nil
		}
		return newCache(e, f, &p.opts)
	}
}

// Stats counts cache-layer activity on one rank.
type Stats struct {
	CacheWrites      int64 // writes absorbed by the cache
	CacheBytes       int64 // bytes absorbed by the cache
	SyncedBytes      int64 // bytes drained to the global file system
	SyncRequests     int64 // sync requests created
	WriteThroughs    int64 // writes that bypassed a full cache
	FlushWaits       int64 // flush/close operations that had to wait
	FlushWaitTime    sim.Time
	CoherentLockHeld int64 // extents locked by coherent mode
	CacheReads       int64 // reads served from the local cache
	Backoffs         int64 // adaptive-flush congestion backoffs
	SyncRetries      int64 // failed sync chunks retried after backoff
	SyncFailures     int64 // sync requests completed with a terminal error
	RecoveredExtents int64 // journal extents replayed at open
	RecoveredBytes   int64 // bytes replayed from the cache at open
	ScrubbedExtents  int64 // journal extents checksum-verified before replay
	CorruptExtents   int64 // extents failing scrub, quarantined instead of replayed
	QuarantinedBytes int64 // bytes quarantined by scrub (degraded to re-fetch/write-through)
	CacheDegraded    bool  // cache device failed mid-run; writing through

	// Multi-tenant service mode (zero in single-tenant runs).
	QuotaStalls        int64    // writes that blocked on capacity/quota pressure
	QuotaStallTime     sim.Time // total time spent blocked
	QuotaWriteThroughs int64    // writes degraded to write-through by pressure
	EvictedBytes       int64    // clean cache bytes punched out under pressure
	AdmitRejects       int64    // admissions denied (session fell back to uncached)
}

// syncReq is one pending synchronisation request: move ext from the cache
// file to the global file, then complete the generalized request (and drop
// the coherent-mode lock, if one is held).
type syncReq struct {
	ext  extent.Extent
	greq *mpi.Request
	lock *pfs.Lock
	aid  uint64 // trace async-span id, 0 when tracing is off
}

// Cache is the per-rank cache state attached to an open ADIO file. It
// implements adio.Hooks.
type Cache struct {
	env   *Env
	f     *adio.File
	opts  *Options // shared read-only by the ranks of one collective open
	fs    *nvm.FS
	cfile *nvm.File
	key   string // journal-registry key: "n<node>:" + name
	name  string // cache file path on the node-local file system; a suffix of key

	// dirty is the cache file's persistent journal: cached-but-unsynced
	// extents. Shared with the Env registry so it survives close/crash.
	dirty    *Journal
	degraded bool // cache device failed mid-run; all writes go through
	crashed  bool

	// quarantine holds ranges that failed the recovery scrub: never
	// replayed, never served from the cache. A fresh write over a
	// quarantined range goes straight to the global file (write-through)
	// and lifts the quarantine; reads re-fetch from the global file.
	quarantine extent.Set
	// recovered accumulates the ranges this cache replayed to the global
	// file (oracles compare them against a clean run's bytes).
	recovered extent.Set

	// Multi-tenant service mode (see tenant.go; inert when the e10_tenant
	// hint is absent).
	tenantAttached bool   // admission granted and session counted
	unregEvict     func() // removes this cache's clean-extent evictor

	syncer      *syncThread
	pending     []*syncReq // created but not yet submitted (flush_onclose)
	outstanding []*syncReq // submitted or pending; waited on at flush

	Stats Stats
}

// cacheMetrics is the cache layer's set of metric handles, one per Env and
// registry. The series carry only the layer label, so every rank's cache
// feeds the same aggregate — the per-run totals Equation 1 is stated in.
type cacheMetrics struct {
	reg        *metrics.Registry
	writes     *metrics.Counter
	bytes      *metrics.Counter
	through    *metrics.Counter
	devErr     *metrics.Counter
	syncReqs   *metrics.Counter
	synced     *metrics.Counter
	retries    *metrics.Counter
	failures   *metrics.Counter
	backoffs   *metrics.Counter
	flushWaits *metrics.Counter
	notHidden  *metrics.Counter
	replays    *metrics.Counter
	recovered  *metrics.Counter
	extentNs   *metrics.Histogram
	chunkNs    *metrics.Histogram
}

// meters returns the cache layer's metric handles, registering them with
// the run's registry on first use; nil when metrics are disabled.
func (c *Cache) meters() *cacheMetrics {
	m := c.f.Rank().World().Kernel().Metrics()
	if m == nil {
		return nil
	}
	if cm := c.env.meters; cm != nil && cm.reg == m {
		return cm
	}
	return c.env.registerMeters(m)
}

// registerMeters registers the cache layer's metric handles with m. It
// stays out of line: its frame is larger than the rest of a cache write's
// frames together.
//
//go:noinline
func (env *Env) registerMeters(m *metrics.Registry) *cacheMetrics {
	layer := metrics.L(metrics.KeyLayer, "core")
	cm := &cacheMetrics{
		reg:        m,
		writes:     m.Counter("cache_writes_total", layer),
		bytes:      m.Counter("cache_bytes_total", layer),
		through:    m.Counter("cache_write_through_total", layer),
		devErr:     m.Counter("cache_device_errors_total", layer),
		syncReqs:   m.Counter("cache_sync_reqs_total", layer),
		synced:     m.Counter("cache_synced_bytes_total", layer),
		retries:    m.Counter("cache_sync_retries_total", layer),
		failures:   m.Counter("cache_sync_failures_total", layer),
		backoffs:   m.Counter("cache_adaptive_backoffs_total", layer),
		flushWaits: m.Counter("cache_flush_waits_total", layer),
		notHidden:  m.Counter("not_hidden_sync_ns_total", layer),
		replays:    m.Counter("cache_journal_replays_total", layer),
		recovered:  m.Counter("cache_recovered_bytes_total", layer),
		extentNs:   m.Histogram("cache_sync_extent_ns", layer),
		chunkNs:    m.Histogram("cache_sync_chunk_ns", layer),
	}
	env.meters = cm
	return cm
}

var _ adio.Hooks = (*Cache)(nil)

// newCache opens the cache file (ADIOI_GEN_OpenColl extension). An error
// here makes adio revert to the standard path.
func newCache(env *Env, f *adio.File, opts *Options) (*Cache, error) {
	if env.LocalFS == nil {
		return nil, errors.New("core: no local file system provider")
	}
	fs := env.LocalFS(f.Rank().Node().ID())
	if fs == nil {
		return nil, fmt.Errorf("core: node %d has no local cache storage", f.Rank().Node().ID())
	}
	c := &Cache{env: env, f: f, opts: opts, fs: fs}
	c.key = fmt.Sprintf("n%d:%s/%s.cache.r%d", f.Rank().Node().ID(), opts.Path, f.Path(), f.Rank().ID())
	c.name = c.key[strings.IndexByte(c.key, ':')+1:]
	return c, nil
}

// tracer returns the run's tracer (nil when tracing is disabled) and this
// rank's timeline.
func (c *Cache) tracer() (*trace.Tracer, trace.TrackID) {
	tr := c.f.Rank().World().Kernel().Tracer()
	if tr == nil {
		return nil, trace.NoTrack
	}
	return tr, c.f.Rank().TraceTrack(tr)
}

// AtOpenColl implements adio.Hooks: create the cache file, replay any
// retained journal from a previous crashed session (e10_cache_recovery),
// and start the sync thread.
func (c *Cache) AtOpenColl(f *adio.File) error {
	// Multi-tenant admission first: a tenant whose reservation cannot be
	// met never creates a cache file (the open reverts to the standard
	// path). No-op in single-tenant mode.
	if err := c.tenantAdmit(); err != nil {
		return err
	}
	cf, err := c.fs.OpenTenant(c.name, c.opts.Tenant.Name, true)
	if err != nil {
		c.tenantWithdraw()
		return err
	}
	c.cfile = cf
	c.dirty = c.env.journal(c.key)
	if c.opts.Recover {
		c.scrub(f)
	}
	if c.opts.Recover && c.dirty.Len() > 0 {
		tr, tk := c.tracer()
		tr.Instant(tk, "cache", "journal_replay", int64(f.Rank().Now()),
			trace.I("extents", int64(c.dirty.Len())), trace.I("bytes", c.dirty.TotalBytes()))
		rsp := tr.Begin(tk, "cache", "recovery", int64(f.Rank().Now()))
		if err := c.recover(f); err != nil {
			// The cache file and journal stay behind for a later attempt;
			// this open reverts to the standard path.
			c.tenantWithdraw()
			return fmt.Errorf("core: cache recovery: %w", err)
		}
		rsp.End(int64(f.Rank().Now()), trace.I("bytes", c.Stats.RecoveredBytes))
		if m := c.meters(); m != nil {
			m.replays.Inc()
			m.recovered.Add(c.Stats.RecoveredBytes)
		}
	}
	if !c.env.SkipSync {
		c.syncer = startSyncThread(c)
	}
	return nil
}

// scrub verifies the retained journal before replay: first the journal's
// own at-rest image (a torn append or rotted record truncates the record
// list to its last valid prefix — the lost dirty ranges are quarantined),
// then every surviving journaled extent against the cache store's
// checksums (corrupt subranges are quarantined instead of replayed).
// Quarantined ranges degrade to re-fetch/write-through; they are never
// silently synced to the global file. Pure bookkeeping: no device time,
// and on a clean journal no trace events or metric series either.
func (c *Cache) scrub(f *adio.File) {
	lost := c.dirty.Scrub()
	if integ, ok := c.cfile.Store().(store.Integrity); ok {
		for _, e := range c.dirty.Extents() {
			c.Stats.ScrubbedExtents++
			lost = append(lost, integ.VerifyExtent(e)...)
		}
	}
	c.condemn(f, lost)
}

// condemn quarantines ranges an integrity check caught corrupt: they leave
// the dirty set (never replayed or synced), join the quarantine (degrading
// reads and writes over them), and are charged to the stats, metrics and
// the Env's scrub-loss ledger. No-op on an empty list, so clean paths emit
// nothing.
func (c *Cache) condemn(f *adio.File, lost []extent.Extent) {
	if len(lost) == 0 {
		return
	}
	var qs extent.Set
	for _, e := range lost {
		qs.Add(e)
	}
	var bytes int64
	for _, e := range qs.Extents() {
		c.dirty.Remove(e)
		c.quarantine.Add(e)
		c.Stats.CorruptExtents++
		bytes += e.Len
	}
	c.Stats.QuarantinedBytes += bytes
	c.env.noteScrubLoss(c.key, qs.Extents())
	if m := f.Rank().World().Kernel().Metrics(); m != nil {
		layer := metrics.L(metrics.KeyLayer, "core")
		m.Counter("cache_corrupt_extents_total", layer).Add(int64(qs.Len()))
		m.Counter("cache_quarantined_bytes_total", layer).Add(bytes)
	}
	if tr, tk := c.tracer(); tr != nil {
		tr.Instant(tk, "cache", "scrub_quarantine", int64(f.Rank().Now()),
			trace.I("extents", int64(qs.Len())), trace.I("bytes", bytes))
	}
}

// recover replays the journal's unsynced extents from the local cache file
// to the global file — the paper's persistence argument (§III): data that
// reached the NVM device survives a node crash and "can be synchronized at
// a later stage". When both the cache and the global file carry real
// payload, every replayed chunk is read back from the global file and
// compared, so recovery is integrity-checked end to end.
func (c *Cache) recover(f *adio.File) error {
	p := f.Rank().Proc()
	bufSize := f.Hints().IndWrBufferSize
	_, cachePayload := c.cfile.Store().(store.PayloadBacked)
	verifier, _ := f.Backend().(interface{ PayloadBacked() bool })
	verify := cachePayload && verifier != nil && verifier.PayloadBacked()
	exts := c.dirty.Extents()
	// Recovery's buffers come from the World's pool and go back to it when
	// the replay ends.
	pool := f.Rank().World().Pool()
	var rbuf, vbuf []byte
	if cachePayload && len(exts) > 0 {
		rbuf = pool.Get(int(bufSize))
		defer pool.Put(rbuf)
		if verify {
			vbuf = pool.Get(int(bufSize))
			defer pool.Put(vbuf)
		}
	}
	for _, ext := range exts {
		for off := ext.Off; off < ext.End(); off += bufSize {
			// A second crash can land while this node replays the first
			// crash's journal; abort the replay at a chunk boundary so the
			// journal keeps exactly the still-unsynced extents.
			if c.crashed {
				return ErrCrashed
			}
			n := min(bufSize, ext.End()-off)
			chunk := extent.Extent{Off: off, Len: n}
			var buf []byte // nil without a payload: the read is charged either way
			if rbuf != nil {
				buf = rbuf[:n]
			}
			if err := c.cfile.ReadAt(p, store.Bytes(buf, off), off, n); err != nil {
				return err
			}
			// Re-verify AFTER the read: bit-rot can land between the
			// up-front scrub and this chunk's read completing (the read
			// consumes device time), and a checksum failure here must
			// quarantine, never propagate rotten bytes to durable storage.
			// Checking post-read closes the race — the verification runs at
			// the same virtual instant the payload was captured.
			good := []extent.Extent{chunk}
			if integ, ok := c.cfile.Store().(store.Integrity); ok {
				if bad := integ.VerifyExtent(chunk); len(bad) != 0 {
					c.condemn(f, bad)
					var bs extent.Set
					for _, b := range bad {
						bs.Add(b)
					}
					good = bs.Gaps(chunk)
				}
			}
			for _, g := range good {
				var gbuf []byte
				if buf != nil {
					gbuf = buf[g.Off-off : g.Off-off+g.Len]
				}
				if err := f.Backend().WriteContig(p, store.Bytes(gbuf, g.Off), g.Off, g.Len); err != nil {
					return err
				}
				if verify && gbuf != nil {
					vb := vbuf[:g.Len]
					if err := f.Backend().ReadContig(p, store.Bytes(vb, g.Off), g.Off, g.Len); err != nil {
						return err
					}
					if !bytes.Equal(gbuf, vb) {
						return fmt.Errorf("core: recovery verification failed at [%d,+%d)", g.Off, g.Len)
					}
				}
				c.dirty.Remove(g)
				c.recovered.Add(g)
				c.Stats.RecoveredBytes += g.Len
			}
		}
		c.Stats.RecoveredExtents++
	}
	return nil
}

// noteCacheError inspects a cache-device error: an I/O error marks the
// device dead for the rest of the run (all further writes go through),
// while ENOSPC stays per-write — space may free up later.
func (c *Cache) noteCacheError(err error) {
	if m := c.meters(); m != nil {
		m.devErr.Inc()
	}
	if errors.Is(err, nvm.ErrIO) {
		c.degraded = true
		c.Stats.CacheDegraded = true
		if tr, tk := c.tracer(); tr != nil {
			tr.Instant(tk, "cache", "cache_degraded", int64(c.f.Rank().Now()))
		}
	}
}

// noteWriteThrough accounts a write that bypassed the cache.
func (c *Cache) noteWriteThrough(off, size int64) {
	c.Stats.WriteThroughs++
	if m := c.meters(); m != nil {
		m.through.Inc()
	}
	if tr, tk := c.tracer(); tr != nil {
		tr.Instant(tk, "cache", "write_through", int64(c.f.Rank().Now()),
			trace.I("off", off), trace.I("bytes", size))
	}
}

// WriteContig implements adio.Hooks: ADIOI_GEN_WriteContig writes through
// cache_fd, allocates cache space with ADIOI_Cache_alloc (fallocate), and
// posts a synchronisation request with an associated MPI_Request handle.
// When the cache partition is full — or the device has failed mid-run —
// the write falls through to the global file system (handled=false).
func (c *Cache) WriteContig(f *adio.File, src store.Source, off, size int64) (bool, error) {
	if c.crashed {
		return false, ErrCrashed
	}
	if c.degraded || c.cfile == nil {
		c.noteWriteThrough(off, size)
		return false, nil
	}
	e := extent.Extent{Off: off, Len: size}

	// A write over a quarantined range supersedes the corrupt bytes with
	// fresh data: route it straight to the global file and lift the
	// quarantine — the cache copy of that range is untrusted.
	if c.quarantine.Len() > 0 && c.quarantine.Overlaps(e) {
		c.quarantine.Remove(e)
		c.noteWriteThrough(off, size)
		return false, nil
	}
	lock, ok, err := c.writeLocal(f, src, e)
	if !ok {
		return false, err
	}
	return c.postSync(f.Rank(), e, lock)
}

// writeLocal is the blocking part of a cache write: the coherent mode's
// extent lock, the cache space and the device write. It reports ok with
// the lock held (nil outside coherent mode) once the bytes are in the
// cache file; otherwise the lock is released and the write goes to the
// global file, or fails with ErrCrashed.
func (c *Cache) writeLocal(f *adio.File, src store.Source, e extent.Extent) (lock *pfs.Lock, ok bool, err error) {
	p := f.Rank().Proc()
	if c.opts.Mode == CacheCoherent && c.env.Locks != nil {
		lock = c.env.Locks.Acquire(p, f.Path(), pfs.WriteLock, e)
		c.Stats.CoherentLockHeld++
	}
	// allocCache is Fallocate plus, under tenancy, the backpressure ladder:
	// reclaim clean extents, then block-and-poll up to the tenant's
	// BlockTimeout before surfacing the pressure error.
	if err := c.allocCache(p, e.Off, e.Len); err != nil {
		return nil, false, c.allocFailed(lock, e, err)
	}
	if err := c.cfile.WriteAt(p, src, e.Off, e.Len); err != nil {
		c.writeFailed(lock, e, err)
		return nil, false, nil
	}
	return lock, true, nil
}

// allocFailed releases lock after the cache space for e could not be
// allocated. A node that died while the write was blocked on capacity
// fails the write with ErrCrashed. Otherwise, with no space or a dead
// device, the write goes to the global file directly; quota pressure is
// not a device error.
func (c *Cache) allocFailed(lock *pfs.Lock, e extent.Extent, err error) error {
	if lock != nil {
		c.env.Locks.Unlock(lock)
	}
	if errors.Is(err, ErrCrashed) {
		return ErrCrashed
	}
	if !errors.Is(err, nvm.ErrQuota) {
		c.noteCacheError(err)
	}
	c.noteWriteThrough(e.Off, e.Len)
	return nil
}

// writeFailed releases lock after the device write of e failed; the
// write goes to the global file directly.
func (c *Cache) writeFailed(lock *pfs.Lock, e extent.Extent, err error) {
	if lock != nil {
		c.env.Locks.Unlock(lock)
	}
	c.noteCacheError(err)
	c.noteWriteThrough(e.Off, e.Len)
}

// postSync is the tail of a cache write whose bytes are in the cache
// file: it accounts and traces the write and posts its synchronisation
// request, which holds lock until the sync thread completes it.
func (c *Cache) postSync(r *mpi.Rank, e extent.Extent, lock *pfs.Lock) (bool, error) {
	c.Stats.CacheWrites++
	c.Stats.CacheBytes += e.Len
	m := c.meters()
	if m != nil {
		m.writes.Inc()
		m.bytes.Add(e.Len)
	}
	c.dirty.Add(e)
	tr, tk := c.tracer()
	tr.Instant(tk, "cache", "cache_write", int64(r.Now()),
		trace.I("off", e.Off), trace.I("bytes", e.Len))

	// The lock acquisition and the device write both block, so the node may
	// have crashed underneath us. The bytes are in the cache file and the
	// journal (they will be recovered), but there is no sync thread left to
	// complete a request — posting one would park the rank forever at flush.
	if c.crashed {
		if lock != nil {
			c.env.Locks.Unlock(lock)
		}
		return false, ErrCrashed
	}

	if c.env.SkipSync {
		if lock != nil {
			c.env.Locks.Unlock(lock)
		}
		return true, nil
	}
	req := &syncReq{ext: e, greq: r.World().NewGrequest(), lock: lock}
	// The request's lifetime — creation here to Grequest completion on the
	// sync thread — is the window in which sync can hide behind compute;
	// trace it as an async span.
	req.aid = tr.AsyncBegin(tk, "cache", "sync_req", int64(r.Now()),
		trace.I("off", e.Off), trace.I("len", e.Len))
	c.Stats.SyncRequests++
	if m != nil {
		m.syncReqs.Inc()
	}
	c.outstanding = append(c.outstanding, req)
	if c.opts.FlushFlag == FlushOnClose {
		c.pending = append(c.pending, req)
	} else {
		// flush_immediate and flush_adaptive both start sync right away.
		c.syncer.submit(req)
	}
	return true, nil
}

// ReadContig implements adio.ReadHooks (the paper's future-work cache-read
// extension, guarded by the e10_cache_read hint): a read whose extent is
// fully present in this rank's cache file is served from the local SSD
// without touching the global file system. This is always consistent with
// the reading rank's own writes; cross-rank reads still go to the global
// file.
func (c *Cache) ReadContig(f *adio.File, dst store.Sink, off, size int64) (bool, error) {
	if !c.opts.ReadCache || c.cfile == nil || c.degraded || c.crashed {
		return false, nil
	}
	if !c.cfile.Store().Written().Covers(extent.Extent{Off: off, Len: size}) {
		return false, nil
	}
	// Never serve quarantined bytes from the cache: the read re-fetches
	// from the global file instead.
	if c.quarantine.Len() > 0 && c.quarantine.Overlaps(extent.Extent{Off: off, Len: size}) {
		return false, nil
	}
	if err := c.cfile.ReadAt(f.Rank().Proc(), dst, off, size); err != nil {
		// Device died underneath us: fall through to the global file.
		c.noteCacheError(err)
		return false, nil
	}
	c.Stats.CacheReads++
	return true, nil
}

// AtFlush implements adio.Hooks: ADIOI_GEN_Flush. With flush_immediate it
// waits for previously started sync requests; with flush_onclose it first
// hands all pending requests to the sync thread, then waits. The wait time
// is the not_hidden_sync term of Equation 1 and is recorded as such. A
// request whose extent could not be synced within the retry budget carries
// a terminal error status, which is surfaced here — a failed sync is never
// silent.
func (c *Cache) AtFlush(f *adio.File) error {
	if c.env.SkipSync {
		return nil
	}
	if c.crashed {
		return ErrCrashed
	}
	for _, req := range c.pending {
		c.syncer.submit(req)
	}
	c.pending = nil
	r := f.Rank()
	start := r.Now()
	var errs []error
	for _, req := range c.outstanding {
		r.Wait(req.greq)
		if err := req.greq.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	c.outstanding = nil
	if wait := r.Now() - start; wait > 0 {
		c.Stats.FlushWaits++
		c.Stats.FlushWaitTime += wait
		if m := c.meters(); m != nil {
			m.flushWaits.Inc()
			m.notHidden.Add(int64(wait))
		}
		f.Log().Add(mpe.PhaseNotHiddenSync, wait)
		// This wait IS Equation 1's not_hidden_sync term; give it its own
		// span so a trace shows exactly which flush stalled and for how long.
		if tr, tk := c.tracer(); tr != nil {
			tr.SpanAt(tk, "cache", "not_hidden_sync", int64(start), int64(r.Now()))
		}
	}
	return errors.Join(errs...)
}

// AtClose implements adio.Hooks: ADIO_Close invokes ADIOI_GEN_Flush to
// drain the cache, stops the sync thread, closes the cache file and, when
// e10_cache_discard_flag is enable, removes it to free local space. When
// the flush failed, the cache file holds the only surviving copy of the
// unsynced extents, so it is retained regardless of the discard flag (its
// journal stays with it) for recovery by a later open.
func (c *Cache) AtClose(f *adio.File) error {
	err := c.AtFlush(f)
	if c.syncer != nil {
		c.syncer.stop()
	}
	if err != nil {
		// The retained cache file stays charged to the tenant, but the
		// session itself is over: release the admission reservation.
		c.tenantWithdraw()
		return err
	}
	if c.opts.Discard && c.cfile != nil {
		if rerr := c.fs.Remove(c.name); rerr != nil {
			err = rerr
		} else {
			c.env.dropJournal(c.key)
		}
		c.cfile = nil
	}
	c.tenantWithdraw()
	return err
}

// Crash simulates the rank's node dying: the sync thread stops mid-stream,
// in-flight and pending requests are abandoned, and nothing is cleaned up —
// the cache file and its journal survive on the NVM device, exactly the
// persistence property the paper argues for. Coherent-mode locks held by
// abandoned requests are released, as a lock manager's lease expiry would.
func (c *Cache) Crash() {
	if c.crashed {
		return
	}
	c.crashed = true
	// A dead node cannot serve eviction requests; its reservation and
	// cache bytes deliberately stay charged (retained for recovery).
	c.tenantDetachEvictor()
	for _, req := range c.pending {
		if req.lock != nil {
			c.env.Locks.Unlock(req.lock)
		}
		// Never submitted, so the sync thread cannot complete it; complete
		// it here so any Wait on the handle returns instead of parking
		// forever. (Submitted requests are completed by syncer.crash.)
		req.greq.CompleteWithError(ErrCrashed)
	}
	c.pending = nil
	c.outstanding = nil
	if c.syncer != nil {
		c.syncer.crash()
	}
}

// Quarantined returns the ranges the recovery scrub refused to replay
// (still quarantined: not yet superseded by a fresh write).
func (c *Cache) Quarantined() []extent.Extent { return c.quarantine.Extents() }

// Recovered returns the ranges this cache replayed to the global file.
func (c *Cache) Recovered() []extent.Extent { return c.recovered.Extents() }

// syncThread is the background cache-synchronisation agent
// (ADIOI_Sync_thread_start): a dedicated simulated thread that reads data
// back from the cache file ind_wr_buffer_size bytes at a time and writes
// it to the global file, then calls MPI_Grequest_complete on the request
// handle. It is a step process: it never takes a worker, waiting or
// working. On the host it holds no buffer: a chunk's read pins the cache
// file's store pages, and the global write adopts them (store.Pages), so
// a synced byte lives in one page that both files share copy-on-write.
type syncThread struct {
	c       *Cache
	k       *sim.Kernel
	queue   []*syncReq
	cond    *sim.Cond
	stopped bool
	crashed bool
	proc    *sim.Proc
	tk      trace.TrackID
	w       *syncWork // nil until the first request
}

// syncWork is a sync thread's working state, made at its first request so
// that a thread that never gets one stays small.
type syncWork struct {
	stage   syncStage
	bufSize int64
	pins    store.Pages   // the chunk in flight's cache pages, pinned by its read
	payload store.Payload // &pins, or nil when no payload-carrying store backs the cache file

	req      *syncReq
	extT0    sim.Time // when the request's extent began to sync
	baseline sim.Time // flush_adaptive: the extent's best chunk time so far
	off, n   int64    // the chunk in flight
	start    sim.Time // when the chunk began
	attempt  int      // failed attempts charged to RetryLimit
	backoff  sim.Time // the chunk's next retry backoff
	rd       nvm.Read // the chunk's cache read
	wr       pfs.Op   // the chunk's global write
}

type syncStage int8

const (
	syncIdle  syncStage = iota // take the next request, or wait for one
	syncChunk                  // start the extent's next chunk, or end the extent
	syncRead                   // reading the chunk from the cache file
	syncWrite                  // writing the chunk to the global file
	syncRetry                  // backing off before the chunk's next attempt
	syncPace                   // flush_adaptive backoff after a congested chunk
)

// startSyncThread starts the thread, idle until its first request.
func startSyncThread(c *Cache) *syncThread {
	k := c.f.Rank().Proc().Kernel()
	st := &syncThread{c: c, k: k, cond: sim.NewCond(k), tk: trace.NoTrack, proc: new(sim.Proc)}
	k.SpawnStep(st.proc, st)
	if tr := k.Tracer(); tr != nil {
		st.tk = tr.Track(trace.GroupSync, st.proc.Name())
		st.proc.SetTraceTrack(st.tk)
	}
	return st
}

// submit enqueues a request for background synchronisation.
func (st *syncThread) submit(req *syncReq) {
	st.queue = append(st.queue, req)
	if tr := st.k.Tracer(); tr != nil {
		tr.Counter(st.tk, "sync_queue", int64(st.k.Now()), int64(len(st.queue)))
	}
	st.cond.Signal()
}

// stop terminates the thread once the queue is drained.
func (st *syncThread) stop() {
	st.stopped = true
	st.cond.Signal()
}

// crash kills the thread immediately: queued requests abort (the node is
// gone), their locks are released, and their request handles complete with
// ErrCrashed — a rank already parked in AtFlush waiting on one of them must
// wake and observe the crash, not deadlock the whole run.
func (st *syncThread) crash() {
	st.crashed = true
	for _, req := range st.queue {
		if req.lock != nil {
			st.c.env.Locks.Unlock(req.lock)
		}
		req.greq.CompleteWithError(ErrCrashed)
	}
	st.queue = nil
	st.cond.Signal()
}

// Name names the thread's process by file and rank.
func (st *syncThread) Name() string {
	return fmt.Sprintf("sync.%s.r%d", st.c.f.Path(), st.c.f.Rank().ID())
}

// Step runs the thread up to its next wait. The thread drains its queue a
// request at a time, each request's extent as a serial read(cache) ->
// write(global) pipeline in bufSize chunks, exactly like the pthread
// implementation in the paper. Failed chunks
// (cache read or global write) are retried with exponential backoff up to
// the RetryLimit budget; the extent's journal entry is cleared chunk by
// chunk as data reaches the global file.
func (st *syncThread) Step(p *sim.Proc) {
	for !st.advance(p) {
	}
}

// advance runs the thread's current stage and reports whether the step is
// over: a resume is arranged, or the thread has ended.
func (st *syncThread) advance(p *sim.Proc) bool {
	w := st.w
	if w == nil || w.stage == syncIdle {
		return st.take(p)
	}
	switch w.stage {
	case syncChunk:
		if w.off >= w.req.ext.End() {
			return st.endExtent(p, nil)
		}
		if st.crashed {
			return st.endExtent(p, ErrCrashed)
		}
		w.n = min(w.bufSize, w.req.ext.End()-w.off)
		w.start, w.attempt = p.Now(), 0
		w.backoff = st.c.opts.RetryBackoff
		return st.read(p)
	case syncRead:
		if err := st.c.cfile.ReadDone(w.rd); err != nil {
			return st.retry(p, err)
		}
		// The crash can land while the cache read is in flight; the
		// device op completes, but a dead node must not issue a fresh
		// global write with whatever the read captured (the at-rest
		// bytes may have rotted since). The chunk stays journalled for
		// recovery, where it is checksum-scrubbed before replay.
		if st.crashed {
			return st.endChunk(p, ErrCrashed)
		}
		st.c.f.Backend().StartWrite(&w.wr, w.payload, w.off, w.n)
		w.stage = syncWrite
	case syncWrite:
		if w.wr.Step(p) {
			return true
		}
		if err := w.wr.Err(); err != nil {
			return st.retry(p, err)
		}
		return st.endChunk(p, nil)
	case syncRetry:
		return st.read(p)
	case syncPace:
		w.off += w.bufSize
		w.stage = syncChunk
	}
	return false
}

// take is the thread's loop head: it takes the next request, or, with an
// empty queue, waits for one — or ends, once stopped or crashed.
func (st *syncThread) take(p *sim.Proc) bool {
	c := st.c
	w := st.w
	if len(st.queue) == 0 {
		if !st.stopped && !st.crashed {
			st.cond.WaitThen(p)
		}
		return true
	}
	if w == nil {
		w = &syncWork{bufSize: c.f.Hints().IndWrBufferSize}
		if _, ok := c.cfile.Store().(store.PayloadBacked); ok {
			w.payload = &w.pins
		}
		st.w = w
	}
	if st.crashed {
		return true
	}
	w.req = st.queue[0]
	st.queue = st.queue[1:]
	if tr := st.k.Tracer(); tr != nil {
		tr.Counter(st.tk, "sync_queue", int64(p.Now()), int64(len(st.queue)))
	}
	w.extT0, w.baseline, w.off = p.Now(), 0, w.req.ext.Off
	w.stage = syncChunk
	return false
}

// read starts an attempt at the chunk: its read from the cache file,
// which pins the chunk's cache pages when it completes (the device time
// is charged with or without a payload).
func (st *syncThread) read(p *sim.Proc) bool {
	w := st.w
	rd, err := st.c.cfile.ReadThen(p, w.payload, w.off, w.n)
	if err != nil {
		return st.retry(p, err)
	}
	w.rd, w.stage = rd, syncRead
	return true
}

// retry handles a failed attempt at the chunk. Both legs can fail: the
// cache read (SSD died) and the global write (storage target down); either
// way the data is still safe in one of the two copies, so retrying is
// always sound. The attempt's pins are dropped; the next read takes them
// afresh. A network partition (pfs.ErrPartitioned) is environmental
// rather than a fault of either copy: it heals when the fabric does, so
// partition retries do not consume the RetryLimit budget — they back off
// (capped, so a long partition polls instead of sleeping geometrically)
// until the fabric heals or the node crashes.
func (st *syncThread) retry(p *sim.Proc, err error) bool {
	c, w := st.c, st.w
	w.pins.Release()
	if st.crashed {
		return st.endChunk(p, err)
	}
	partitioned := errors.Is(err, pfs.ErrPartitioned)
	if !partitioned {
		if w.attempt >= c.opts.RetryLimit {
			return st.endChunk(p, fmt.Errorf("%w (after %d attempts)", err, w.attempt+1))
		}
		w.attempt++
	}
	c.Stats.SyncRetries++
	if m := c.meters(); m != nil {
		m.retries.Inc()
	}
	if tr := st.k.Tracer(); tr != nil {
		tr.Instant(st.tk, "cache", "sync_retry", int64(p.Now()),
			trace.I("attempt", int64(w.attempt)), trace.I("backoff_ns", int64(w.backoff)))
	}
	p.Then(w.backoff)
	if w.backoff < PartitionBackoffCap {
		w.backoff *= 2
		if partitioned && w.backoff > PartitionBackoffCap {
			w.backoff = PartitionBackoffCap
		}
	} else if !partitioned {
		w.backoff *= 2
	}
	w.stage = syncRetry
	return true
}

// endChunk ends the chunk in flight, failed with err or synced, and drops
// its pins: the global file holds the pages it adopted. A synced chunk
// leaves the journal; under flush_adaptive the thread then paces
// itself (§III suggestion): it tracks the extent's best chunk time as the
// uncongested baseline and, when a chunk runs far above it, backs off by
// the excess, ceding the I/O servers to foreground traffic.
func (st *syncThread) endChunk(p *sim.Proc, err error) bool {
	c, w := st.c, st.w
	w.pins.Release()
	tr := st.k.Tracer()
	m := c.meters()
	tr.SpanAt(st.tk, "cache", "sync_chunk", int64(w.start), int64(p.Now()),
		trace.I("off", w.off), trace.I("len", w.n))
	if m != nil {
		m.chunkNs.Observe(int64(p.Now() - w.start))
	}
	if err != nil {
		return st.endExtent(p, err)
	}
	c.Stats.SyncedBytes += w.n
	if m != nil {
		m.synced.Add(w.n)
	}
	c.dirty.Remove(extent.Extent{Off: w.off, Len: w.n})
	if tr != nil {
		tr.Counter(st.tk, "dirty_bytes", int64(p.Now()), c.dirty.TotalBytes())
	}
	w.stage = syncChunk
	if c.opts.FlushFlag == FlushAdaptive {
		took := p.Now() - w.start
		if w.baseline == 0 || took < w.baseline {
			w.baseline = took
		}
		if took > 2*w.baseline {
			c.Stats.Backoffs++
			if m != nil {
				m.backoffs.Inc()
			}
			if tr != nil {
				tr.Instant(st.tk, "cache", "adaptive_backoff", int64(p.Now()),
					trace.I("excess_ns", int64(took-w.baseline)))
			}
			p.Then(took - w.baseline)
			w.stage = syncPace
			return true
		}
	}
	w.off += w.bufSize
	return false
}

// endExtent ends the request in flight, its extent synced or failed with
// err, and reports whether the thread ends: it does when the node died
// mid-extent. The lock is released whether the sync succeeded or aborted —
// a terminal failure must not leave the extent locked forever — and the
// handle always completes, with ErrCrashed after a crash, so a rank parked
// in AtFlush waiting on it wakes instead of deadlocking.
func (st *syncThread) endExtent(p *sim.Proc, err error) bool {
	c, w := st.c, st.w
	req := w.req
	w.req, w.stage = nil, syncIdle
	tr := st.k.Tracer()
	tr.SpanAt(st.tk, "cache", "sync_extent", int64(w.extT0), int64(p.Now()),
		trace.I("off", req.ext.Off), trace.I("len", req.ext.Len))
	m := c.meters()
	if m != nil {
		m.extentNs.Observe(int64(p.Now() - w.extT0))
	}
	if req.lock != nil {
		c.env.Locks.Unlock(req.lock)
	}
	if st.crashed {
		req.greq.CompleteWithError(ErrCrashed)
		return true
	}
	if tr != nil {
		tr.AsyncEnd(st.tk, "cache", "sync_req", req.aid, int64(p.Now()))
	}
	if err != nil {
		c.Stats.SyncFailures++
		if m != nil {
			m.failures.Inc()
		}
		if tr != nil {
			tr.Instant(st.tk, "cache", "sync_failed", int64(p.Now()),
				trace.I("off", req.ext.Off), trace.I("len", req.ext.Len))
		}
		req.greq.CompleteWithError(fmt.Errorf("core: sync [%d,+%d): %w", req.ext.Off, req.ext.Len, err))
		return false
	}
	req.greq.Complete()
	return false
}
