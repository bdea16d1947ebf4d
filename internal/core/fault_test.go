package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
)

// setTargets flips every PFS data target up or down at once.
func (rg *rig) setTargets(down bool) {
	for i := 0; i < rg.fs.Config().Targets; i++ {
		rg.fs.SetTargetDown(i, down)
	}
}

func TestSyncRetriesTransientTargetOutage(t *testing.T) {
	// All PFS targets go down right after the cached write; they come back
	// 40 ms later, well inside the default retry budget (10+20+40+80 ms of
	// backoff). The sync must retry, then succeed — no error, no data loss.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		rg.setTargets(true)
		rg.k.After(40*sim.Millisecond, func() { rg.setTargets(false) })
		r.Compute(sim.FromSeconds(2))
		c := f.InstalledHooks().(*Cache)
		if err := f.Close(); err != nil {
			t.Errorf("close after transient outage: %v", err)
		}
		if c.Stats.SyncRetries == 0 {
			t.Error("transient outage must be visible as SyncRetries")
		}
		if c.Stats.SyncFailures != 0 {
			t.Errorf("no terminal failure expected, got %d", c.Stats.SyncFailures)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 1<<20 {
		t.Fatalf("global FS got %d bytes, want the full 1 MB", rg.fs.TotalBytesWritten())
	}
}

func TestTerminalSyncFailureSurfacesAndRetainsCache(t *testing.T) {
	// The PFS never comes back: the sync exhausts its retry budget. The
	// failure must surface at close (never silent), the coherent-mode lock
	// must not leak, and the cache file — now the only copy — must survive
	// the close despite discard being enabled by default.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent",
			HintFlushFlag: "flush_immediate", HintCachePath: "/scratch",
		})
		if err := f.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		rg.setTargets(true)
		// Long enough for every retry (10+20+40+80 ms) to burn out.
		r.Compute(sim.FromSeconds(2))
		if held := rg.fs.Locks.HeldLocks("global.dat"); held != 0 {
			t.Errorf("aborted sync leaked %d coherent locks", held)
		}
		c := f.InstalledHooks().(*Cache)
		if err := f.Close(); err == nil {
			t.Error("close must surface the terminal sync failure")
		}
		if c.Stats.SyncFailures == 0 {
			t.Error("terminal failure must be counted in SyncFailures")
		}
		if c.Stats.SyncRetries == 0 {
			t.Error("retries must have been attempted first")
		}
		if c.Dirty().Len() == 0 {
			t.Error("unsynced extents must stay journalled")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rg.nvms[0].Exists("/scratch/global.dat.cache.r0") {
		t.Fatal("flush failure must retain the cache file (only surviving copy)")
	}
}

func TestCrashReleasesLocksAndFailsFurtherIO(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 32<<20); err != nil {
			t.Error(err)
		}
		if rg.fs.Locks.HeldLocks("global.dat") == 0 {
			t.Error("coherent write must hold its lock while in transit")
		}
		c := f.InstalledHooks().(*Cache)
		c.Crash()
		// Let the sync thread observe the crash and unwind mid-extent.
		r.Compute(sim.FromSeconds(1))
		if held := rg.fs.Locks.HeldLocks("global.dat"); held != 0 {
			t.Errorf("crash leaked %d locks", held)
		}
		if err := f.WriteContig(nil, 32<<20, 1<<20); !errors.Is(err, ErrCrashed) {
			t.Errorf("write on crashed node: got %v, want ErrCrashed", err)
		}
		if err := f.Flush(); !errors.Is(err, ErrCrashed) {
			t.Errorf("flush on crashed node: got %v, want ErrCrashed", err)
		}
		if !c.Crashed() {
			t.Error("Crashed() must report the crash")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryReplaysJournalWithVerification(t *testing.T) {
	// The end-to-end persistence story (§III): a node crashes with dirty
	// data in its cache file; reopening the file with e10_cache_recovery
	// replays the journalled extents from local NVM to the global file,
	// verifying every chunk's payload. Deterministic across seeds.
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7 % 251)
	}
	run := func(seed int64) (walltime sim.Time, recovered int64) {
		rg := newRigSeed(t, seed, 1, 1, store.NewMem)
		err := rg.w.Run(func(r *mpi.Rank) {
			// Session 1: cache the write, never sync (flush_onclose), crash.
			f1 := rg.open(r, t, mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
			})
			if err := f1.WriteContig(data, 256<<10, size); err != nil {
				t.Error(err)
			}
			c1 := f1.InstalledHooks().(*Cache)
			if c1.Dirty().Len() == 0 {
				t.Error("cached write must be journalled as dirty")
			}
			c1.Crash()
			if rg.fs.TotalBytesWritten() != 0 {
				t.Error("nothing must have reached the global file before the crash")
			}
			// Session 2: reopen with recovery enabled.
			f2, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
				Info: mpi.Info{
					adio.HintCBWrite: "enable", HintCache: "enable",
					HintCacheRecovery: "enable",
				},
				Hooks: rg.hooks(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			c2 := f2.InstalledHooks().(*Cache)
			if c2 == nil {
				t.Error("recovery open fell back to the standard path")
				return
			}
			recovered = c2.Stats.RecoveredBytes
			if c2.Stats.RecoveredExtents != 1 || c2.Stats.RecoveredBytes != size {
				t.Errorf("recovered %d extents / %d bytes, want 1 / %d",
					c2.Stats.RecoveredExtents, c2.Stats.RecoveredBytes, size)
			}
			if c2.Dirty().Len() != 0 {
				t.Error("journal must be clean after recovery")
			}
			if err := f2.Close(); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		meta := rg.fs.Lookup("global.dat")
		if meta == nil {
			t.Fatal("global file missing after recovery")
		}
		got := make([]byte, size)
		meta.Store().ReadAt(got, 256<<10)
		if !bytes.Equal(got, data) {
			t.Fatal("recovered payload does not match the crashed session's writes")
		}
		return rg.k.Now(), recovered
	}
	w1a, r1a := run(1)
	w1b, r1b := run(1)
	if w1a != w1b || r1a != r1b {
		t.Fatalf("same seed must replay identically: %v/%d vs %v/%d", w1a, r1a, w1b, r1b)
	}
	if _, r2 := run(7); r2 != r1a {
		t.Fatalf("recovery must not depend on the seed: %d vs %d bytes", r2, r1a)
	}
}

func TestCrashDuringFlushWaitDoesNotDeadlock(t *testing.T) {
	// Found by the chaos explorer (fixture crash_flush_deadlock): the node
	// crashes while the rank is already parked in Flush waiting on a sync
	// request. The dying sync thread must complete abandoned requests with
	// ErrCrashed so the waiter wakes — before the fix it dropped them
	// silently and the whole run deadlocked.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_immediate",
		})
		// Two extents: one will be mid-sync at crash time, one still queued.
		if err := f.WriteContig(nil, 0, 32<<20); err != nil {
			t.Error(err)
		}
		if err := f.WriteContig(nil, 32<<20, 32<<20); err != nil {
			t.Error(err)
		}
		c := f.InstalledHooks().(*Cache)
		// 64 MB of sync takes >100 ms; the crash lands mid-flush-wait.
		rg.k.After(5*sim.Millisecond, c.Crash)
		if err := f.Flush(); !errors.Is(err, ErrCrashed) {
			t.Errorf("flush interrupted by crash: got %v, want ErrCrashed", err)
		}
		if held := rg.fs.Locks.HeldLocks("global.dat"); held != 0 {
			t.Errorf("crash mid-flush leaked %d coherent locks", held)
		}
		if c.Outstanding() != 0 {
			t.Errorf("%d sync requests left incomplete after crash", c.Outstanding())
		}
	})
	// A dropped request would park the rank forever and surface here as a
	// kernel deadlock error.
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashDuringCacheWriteDoesNotStrandRequest(t *testing.T) {
	// Found by the chaos explorer: the crash fires while the rank is blocked
	// inside the cache-device write. The write must not post a sync request
	// to the dead sync thread (nothing would ever complete it); it returns
	// ErrCrashed with the coherent lock released, and the bytes stay
	// journalled for recovery.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_onclose",
		})
		c := f.InstalledHooks().(*Cache)
		// A 32 MB cache write blocks the rank for ~64 ms; crash at 5 ms.
		rg.k.After(5*sim.Millisecond, c.Crash)
		if err := f.WriteContig(nil, 0, 32<<20); !errors.Is(err, ErrCrashed) {
			t.Errorf("write spanning the crash: got %v, want ErrCrashed", err)
		}
		if held := rg.fs.Locks.HeldLocks("global.dat"); held != 0 {
			t.Errorf("crashed write leaked %d locks", held)
		}
		if c.Outstanding() != 0 {
			t.Errorf("%d sync requests stranded on the dead sync thread", c.Outstanding())
		}
		if c.Dirty().Len() == 0 {
			t.Error("bytes that reached the cache must stay journalled for recovery")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFaultDeviceDiesDuringReplay(t *testing.T) {
	// Satellite audit: SSD failure *during* journal replay (double fault —
	// the node already crashed once, and its device dies while the next
	// open is replaying the journal). The open must fall back to the
	// standard path with no lock held and no sync thread left behind, and
	// the journal must survive for yet another attempt.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f1 := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_onclose",
		})
		if err := f1.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		f1.InstalledHooks().(*Cache).Crash()
		r.Compute(sim.Millisecond)

		// The device dies; the recovery open's first cache read hits ErrIO.
		rg.nvms[0].Device().SetFailed(true)
		f2, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
			Info: mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "coherent", HintCacheRecovery: "enable",
			},
			Hooks: rg.hooks(),
		})
		if err != nil {
			t.Errorf("open must fall back, not fail: %v", err)
			return
		}
		if !f2.Stats.CacheFallback {
			t.Error("failed recovery must revert to the standard path")
		}
		if f2.InstalledHooks() != nil {
			t.Error("no cache hooks must be installed after fallback")
		}
		if held := rg.fs.Locks.HeldLocks("global.dat"); held != 0 {
			t.Errorf("aborted replay leaked %d locks", held)
		}
		if len(rg.env.JournalKeys()) == 0 {
			t.Error("journal must survive the failed replay for a later attempt")
		}
		// The fallback file still works end to end.
		if err := f2.WriteContig(nil, 2<<20, 1<<20); err != nil {
			t.Errorf("write on fallback path: %v", err)
		}
		if err := f2.Close(); err != nil {
			t.Errorf("close on fallback path: %v", err)
		}
	})
	// A leaked sync-thread proc would park forever and fail the run here.
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFaultENOSPCDuringReplayStillRecovers(t *testing.T) {
	// The ENOSPC flavour of the double fault is benign by design: journal
	// replay only *reads* the cache file, and a full device still serves
	// reads. Recovery must succeed; only later cache writes fall through.
	rg := newRigSeed(t, 1, 1, 1, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		f1 := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f1.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		f1.InstalledHooks().(*Cache).Crash()
		r.Compute(sim.Millisecond)

		rg.nvms[0].Device().SetNoSpace(true)
		f2, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
			Info: mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "enable", HintCacheRecovery: "enable",
			},
			Hooks: rg.hooks(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		c2, _ := f2.InstalledHooks().(*Cache)
		if c2 == nil {
			t.Error("ENOSPC must not abort recovery (reads are unaffected)")
			return
		}
		if c2.Stats.RecoveredBytes != 1<<20 {
			t.Errorf("recovered %d bytes, want %d", c2.Stats.RecoveredBytes, 1<<20)
		}
		// New writes can't allocate cache space: they must write through.
		if err := f2.WriteContig(nil, 2<<20, 64<<10); err != nil {
			t.Errorf("write-through on full device: %v", err)
		}
		if c2.Stats.WriteThroughs == 0 {
			t.Error("full device must be visible as a write-through")
		}
		if err := f2.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 1<<20 {
		t.Fatalf("global FS got %d bytes, want the recovered 1 MB", rg.fs.TotalBytesWritten())
	}
}

func TestRecoveryReplayIsIdempotent(t *testing.T) {
	// Replaying the same journal twice must leave the global file
	// byte-identical to replaying it once — the idempotence oracle the
	// chaos harness is seeded with. The second replay models a crash that
	// interrupted journal trimming after the data had already reached the
	// global file.
	const size = 1 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*13%251 + 1)
	}
	rg := newRigSeed(t, 1, 1, 1, store.NewMem)
	var afterOnce, afterTwice []byte
	err := rg.w.Run(func(r *mpi.Rank) {
		// Session 1: cache the write, crash before any sync.
		f1 := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f1.WriteContig(data, 128<<10, size); err != nil {
			t.Error(err)
		}
		f1.InstalledHooks().(*Cache).Crash()
		r.Compute(sim.Millisecond)

		keys := rg.env.JournalKeys()
		if len(keys) != 1 {
			t.Errorf("journal keys = %v, want exactly one", keys)
			return
		}
		journalled := rg.env.JournalExtents(keys[0])

		// Session 2: first recovery. Keep the cache file (discard=disable)
		// so the re-staged journal has payload to replay from.
		recInfo := mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable",
			HintCacheRecovery: "enable", HintDiscardFlag: "disable",
		}
		open := func() *adio.File {
			f, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
				Info: recInfo, Hooks: rg.hooks(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		snapshot := func() []byte {
			meta := rg.fs.Lookup("global.dat")
			if meta == nil {
				t.Fatal("global file missing")
			}
			buf := make([]byte, size)
			meta.Store().ReadAt(buf, 128<<10)
			return buf
		}

		f2 := open()
		if c := f2.InstalledHooks().(*Cache); c.Stats.RecoveredBytes != size {
			t.Errorf("first replay recovered %d bytes, want %d", c.Stats.RecoveredBytes, size)
		}
		if err := f2.Close(); err != nil {
			t.Error(err)
		}
		afterOnce = snapshot()

		// The journal's clearing is "lost": re-stage it and recover again.
		rg.env.RestoreJournal(keys[0], journalled)
		f3 := open()
		if c := f3.InstalledHooks().(*Cache); c.Stats.RecoveredBytes != size {
			t.Errorf("second replay recovered %d bytes, want %d", c.Stats.RecoveredBytes, size)
		}
		if err := f3.Close(); err != nil {
			t.Error(err)
		}
		afterTwice = snapshot()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterOnce, data) {
		t.Fatal("first recovery did not reproduce the crashed session's bytes")
	}
	if !bytes.Equal(afterOnce, afterTwice) {
		t.Fatal("recover-twice differs from recover-once: replay is not idempotent")
	}
}

func TestRetryHintsConfigureBudget(t *testing.T) {
	// A zero retry limit fails fast: one attempt, no retries.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
			HintSyncRetryLimit: "0", HintSyncRetryBackoff: "1ms",
		})
		if err := f.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		rg.setTargets(true)
		r.Compute(sim.FromSeconds(1))
		rg.setTargets(false)
		c := f.InstalledHooks().(*Cache)
		if err := f.Close(); err == nil {
			t.Error("zero retry budget must fail the sync")
		}
		if c.Stats.SyncRetries != 0 {
			t.Errorf("retry limit 0 must not retry, got %d", c.Stats.SyncRetries)
		}
		if c.Stats.SyncFailures == 0 {
			t.Error("failure must be counted")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncPartitionRetriesAreBudgetExempt(t *testing.T) {
	// Node 0 is cut off from the storage fabric for 400 ms — ten times the
	// plain-fault retry budget (10+20+40+80 ms). Partition errors are
	// retryable for as long as the partition lasts: the attempt counter
	// freezes, the backoff caps at PartitionBackoffCap, and the sync
	// completes once the fabric heals. No terminal failure, no data loss.
	rg := newRig(t, 2, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if r.ID() != 0 {
			r.Compute(sim.FromSeconds(2))
			if err := f.Close(); err != nil {
				t.Errorf("unpartitioned rank close: %v", err)
			}
			return
		}
		if err := f.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		// The first sync chunk spends ~2 ms reading the SSD, so the
		// partition set here lands before its first global-write attempt.
		rg.fab.SetPartition([]int{0}, true)
		rg.k.After(400*sim.Millisecond, func() { rg.fab.SetPartition(nil, false) })
		r.Compute(sim.FromSeconds(2))
		c := f.InstalledHooks().(*Cache)
		if err := f.Close(); err != nil {
			t.Errorf("close after healed partition: %v", err)
		}
		if got := c.Stats.SyncRetries; got <= DefaultRetryLimit {
			t.Errorf("partition retries must exceed the plain-fault budget: got %d, want > %d",
				got, DefaultRetryLimit)
		}
		if c.Stats.SyncFailures != 0 {
			t.Errorf("no terminal failure expected, got %d", c.Stats.SyncFailures)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 1<<20 {
		t.Fatalf("global FS got %d bytes, want the full 1 MB", rg.fs.TotalBytesWritten())
	}
}
