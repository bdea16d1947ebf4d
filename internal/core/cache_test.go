package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adio"
	"repro/internal/bufpool"
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// rig is a small simulated cluster with local SSDs on every node.
type rig struct {
	k    *sim.Kernel
	fab  *netsim.Fabric
	fs   *pfs.System
	w    *mpi.World
	reg  *adio.Registry
	env  *Env
	nvms []*nvm.FS

	caches []*Cache // every cache opened through hooks, in open order
}

func newRig(t *testing.T, nodes, perNode int, factory store.Factory) *rig {
	t.Helper()
	return newRigSeed(t, 1, nodes, perNode, factory)
}

func newRigSeed(t *testing.T, seed int64, nodes, perNode int, factory store.Factory) *rig {
	t.Helper()
	k := sim.NewKernel(seed)
	fab := netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: 3 * sim.GBps, EjeRate: 3 * sim.GBps,
		Latency: 2 * sim.Microsecond, MemRate: 6 * sim.GBps,
	})
	cfg := pfs.DefaultConfig()
	cfg.TargetJitter = nil
	fs := pfs.New(k, cfg, factory)
	w := mpi.NewWorld(k, fab, perNode)
	w.SetPool(bufpool.New())
	clients := make([]*pfs.Client, nodes)
	nvms := make([]*nvm.FS, nodes)
	for i := 0; i < nodes; i++ {
		clients[i] = fs.NewClient(fab.Node(i))
		dev := nvm.NewDevice(k, "ssd", "ssd", nvm.DeviceConfig{
			WriteRate: 500 * sim.MBps, ReadRate: 520 * sim.MBps,
			Latency: 60 * sim.Microsecond, Capacity: 1 << 30,
		})
		nvms[i] = nvm.NewFS(dev, nvm.FSConfig{SupportsFallocate: true}, factory)
	}
	reg := adio.NewRegistry(adio.NewUFSDriver(func(n int) *pfs.Client { return clients[n] }))
	env := &Env{
		LocalFS: func(n int) *nvm.FS { return nvms[n] },
		Locks:   fs.Locks,
	}
	rg := &rig{k: k, fab: fab, fs: fs, w: w, reg: reg, env: env, nvms: nvms}
	if observeRig != nil {
		observeRig(rg)
	}
	return rg
}

// observeRig, when set, is called with every rig as it is built, before it
// runs (the fault-path golden test attaches its tracer here).
var observeRig func(rg *rig)

// hooks is the Env's hook factory, noting every cache it installs.
func (rg *rig) hooks() adio.HooksFactory {
	hf := rg.env.HooksFactory()
	return func(f *adio.File) (adio.Hooks, error) {
		h, err := hf(f)
		if c, ok := h.(*Cache); ok && err == nil && c != nil {
			rg.caches = append(rg.caches, c)
		}
		return h, err
	}
}

func (rg *rig) open(r *mpi.Rank, t *testing.T, info mpi.Info) *adio.File {
	t.Helper()
	f, err := adio.OpenColl(r, adio.OpenArgs{
		Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
		Info: info, Hooks: rg.hooks(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseOptionsTableII(t *testing.T) {
	o, err := ParseOptions(mpi.Info{
		HintCache:       "coherent",
		HintCachePath:   "/scratch/e10",
		HintFlushFlag:   "flush_immediate",
		HintDiscardFlag: "disable",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Mode != CacheCoherent || o.Path != "/scratch/e10" ||
		o.FlushFlag != FlushImmediate || o.Discard {
		t.Fatalf("options = %+v", o)
	}
	if !o.Enabled() {
		t.Fatal("coherent mode must count as enabled")
	}
}

func TestParseOptionsDefaultsAndErrors(t *testing.T) {
	o, err := ParseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Enabled() || o.FlushFlag != FlushOnClose || !o.Discard {
		t.Fatalf("defaults = %+v", o)
	}
	for _, bad := range []mpi.Info{
		{HintCache: "yes"},
		{HintFlushFlag: "sometimes"},
		{HintDiscardFlag: "maybe"},
		{HintCachePath: ""},
	} {
		if _, err := ParseOptions(bad); err == nil {
			t.Fatalf("expected error for %v", bad)
		}
	}
}

// The paper's end-to-end guarantee: a collective write with the cache
// enabled, after close, leaves the global file byte-identical to a direct
// collective write.
func TestCachedCollectiveWriteReachesGlobalFile(t *testing.T) {
	rg := newRig(t, 2, 2, store.NewMem)
	const chunk = 2048
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", adio.HintCBNodes: "2",
			HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		// Interleaved pattern with recognizable bytes.
		var segs []extent.Extent
		var data []byte
		for i := 0; i < 3; i++ {
			off := int64(i*4*chunk + r.ID()*chunk)
			segs = append(segs, extent.Extent{Off: off, Len: chunk})
			for b := 0; b < chunk; b++ {
				data = append(data, byte(r.ID()*50+i*3+b%200))
			}
		}
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := rg.fs.Lookup("global.dat")
	if meta == nil {
		t.Fatal("global file missing")
	}
	if meta.Size() != 3*4*chunk {
		t.Fatalf("global size = %d, want %d", meta.Size(), 3*4*chunk)
	}
	got := make([]byte, meta.Size())
	meta.Store().ReadAt(got, 0)
	for rank := 0; rank < 4; rank++ {
		for i := 0; i < 3; i++ {
			off := i*4*chunk + rank*chunk
			want := make([]byte, chunk)
			for b := 0; b < chunk; b++ {
				want[b] = byte(rank*50 + i*3 + b%200)
			}
			if !bytes.Equal(got[off:off+chunk], want) {
				t.Fatalf("rank %d piece %d corrupted after cache flush", rank, i)
			}
		}
	}
}

func TestFlushImmediateStartsSyncBeforeClose(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 50<<20); err != nil {
			t.Error(err)
		}
		// Give the background sync time to run during "compute".
		r.Compute(sim.FromSeconds(2))
		synced := rg.fs.TotalBytesWritten()
		if synced < 50<<20 {
			t.Errorf("immediate flush did not sync in background: %d bytes", synced)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushOnCloseDefersSync(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f.WriteContig(nil, 0, 10<<20); err != nil {
			t.Error(err)
		}
		r.Compute(sim.FromSeconds(1))
		if rg.fs.TotalBytesWritten() != 0 {
			t.Error("flush_onclose must not sync before close/flush")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if rg.fs.TotalBytesWritten() < 10<<20 {
			t.Error("close must complete the sync")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncOverlapsCompute(t *testing.T) {
	// Writing then computing should hide the sync: close is cheap.
	// Without compute, close must wait (not_hidden_sync > 0).
	closeTime := func(compute sim.Time) (sim.Time, sim.Time) {
		rg := newRig(t, 1, 1, store.NewNull)
		var dur, notHidden sim.Time
		err := rg.w.Run(func(r *mpi.Rank) {
			f := rg.open(r, t, mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
			})
			if err := f.WriteContig(nil, 0, 64<<20); err != nil {
				t.Error(err)
			}
			r.Compute(compute)
			start := r.Now()
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			dur = r.Now() - start
			notHidden = f.Log().Total("not_hidden_sync")
		})
		if err != nil {
			t.Fatal(err)
		}
		return dur, notHidden
	}
	slow, slowNH := closeTime(0)
	fast, fastNH := closeTime(sim.FromSeconds(5))
	if fast >= slow {
		t.Fatalf("compute must hide sync: close %v (no compute) vs %v (compute)", slow, fast)
	}
	if slowNH == 0 {
		t.Fatal("unhidden sync must be recorded as not_hidden_sync")
	}
	if fastNH != 0 {
		t.Fatalf("hidden sync must record no not_hidden_sync, got %v", fastNH)
	}
}

func TestDiscardFlagRemovesCacheFile(t *testing.T) {
	for _, discard := range []bool{true, false} {
		rg := newRig(t, 1, 1, store.NewNull)
		flag := "enable"
		if !discard {
			flag = "disable"
		}
		err := rg.w.Run(func(r *mpi.Rank) {
			f := rg.open(r, t, mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "enable", HintDiscardFlag: flag,
				HintCachePath: "/scratch",
			})
			if err := f.WriteContig(nil, 0, 1<<20); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		name := "/scratch/global.dat.cache.r0"
		if got := rg.nvms[0].Exists(name); got == discard {
			t.Fatalf("discard=%v: cache file exists=%v", discard, got)
		}
		if discard && rg.nvms[0].Device().Used() != 0 {
			t.Fatal("discard must free device capacity")
		}
	}
}

func TestFallbackWhenNoLocalStorage(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	rg.env.LocalFS = func(int) *nvm.FS { return nil } // node has no SSD
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{adio.HintCBWrite: "enable", HintCache: "enable"})
		if !f.Stats.CacheFallback {
			t.Error("open must fall back to the standard path")
		}
		if err := f.WriteContig(nil, 0, 1<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 1<<20 {
		t.Fatal("fallback write must reach the global file")
	}
}

func TestFullCacheWritesThrough(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	// Shrink the SSD to 1 MB.
	dev := nvm.NewDevice(rg.k, "ssd", "tiny", nvm.DeviceConfig{
		WriteRate: 500 * sim.MBps, ReadRate: 500 * sim.MBps, Capacity: 1 << 20,
	})
	tiny := nvm.NewFS(dev, nvm.FSConfig{SupportsFallocate: true}, store.NewNull)
	rg.env.LocalFS = func(int) *nvm.FS { return tiny }
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{adio.HintCBWrite: "enable", HintCache: "enable"})
		if err := f.WriteContig(nil, 0, 8<<20); err != nil { // exceeds capacity
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 8<<20 {
		t.Fatal("oversized write must reach the global file directly")
	}
}

func TestCoherentModeLocksUntilSynced(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	var lockedDuringTransit bool
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 32<<20); err != nil {
			t.Error(err)
		}
		// Immediately after the cache write returns, sync is in flight and
		// the extent must be write-locked.
		lockedDuringTransit = rg.fs.Locks.HeldLocks("global.dat") > 0
		r.Compute(sim.FromSeconds(2))
		if rg.fs.Locks.HeldLocks("global.dat") != 0 {
			t.Error("lock must be dropped once the extent is synced")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lockedDuringTransit {
		t.Fatal("coherent mode must hold a write lock while data is in transit")
	}
}

func TestCoherentReaderBlocksUntilSync(t *testing.T) {
	rg := newRig(t, 1, 2, store.NewNull)
	var readerWaited sim.Time
	err := rg.w.Run(func(r *mpi.Rank) {
		// Open is collective: both ranks participate.
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "coherent", HintFlushFlag: "flush_immediate",
		})
		if r.ID() == 0 {
			if err := f.WriteContig(nil, 0, 64<<20); err != nil {
				t.Error(err)
			}
			r.Compute(sim.FromSeconds(5))
			_ = f.Close()
			return
		}
		// Reader: wait until the writer has cached, then try to read-lock
		// the extent that is still in transit to the global file.
		r.Compute(500 * sim.Millisecond)
		start := r.Now()
		l := rg.fs.Locks.Acquire(r.Proc(), "global.dat", pfs.ReadLock, extent.Extent{Off: 0, Len: 1 << 20})
		readerWaited = r.Now() - start
		rg.fs.Locks.Unlock(l)
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if readerWaited == 0 {
		t.Fatal("reader must block while cached data is in transit")
	}
}

func TestSkipSyncTheoreticalMode(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	rg.env.SkipSync = true
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{adio.HintCBWrite: "enable", HintCache: "enable"})
		if err := f.WriteContig(nil, 0, 16<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() != 0 {
		t.Fatal("theoretical mode must never touch the global file system")
	}
}

func TestMPIFileSyncSemantics(t *testing.T) {
	// §III-B third bullet: data is globally visible after MPI_File_sync
	// (adio.Flush) returns, even with flush_onclose and the file still open.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f.WriteContig(nil, 0, 4<<20); err != nil {
			t.Error(err)
		}
		if err := f.Flush(); err != nil {
			t.Error(err)
		}
		if rg.fs.TotalBytesWritten() < 4<<20 {
			t.Error("MPI_File_sync must force the data to the global file")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForgettingCloseReportsStuckSyncThread(t *testing.T) {
	// The sync thread lives until AtClose stops it; a file that is never
	// closed leaves it parked, and the kernel's deadlock detector names
	// it instead of hanging — a safety net for harness bugs.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{adio.HintCBWrite: "enable", HintCache: "enable"})
		_ = f // never closed
	})
	if err == nil {
		t.Fatal("expected a deadlock error naming the sync thread")
	}
	if !strings.Contains(err.Error(), "sync.") {
		t.Fatalf("error should identify the stuck sync thread: %v", err)
	}
}

func TestCacheStatsAccounting(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 4<<20); err != nil {
			t.Error(err)
		}
		if err := f.WriteContig(nil, 4<<20, 4<<20); err != nil {
			t.Error(err)
		}
		c, ok := f.InstalledHooks().(*Cache)
		if !ok {
			t.Fatal("cache not installed")
		}
		if c.Stats.CacheWrites != 2 || c.Stats.CacheBytes != 8<<20 || c.Stats.SyncRequests != 2 {
			t.Errorf("stats = %+v", c.Stats)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if c.Stats.SyncedBytes != 8<<20 {
			t.Errorf("synced = %d", c.Stats.SyncedBytes)
		}
		if c.Outstanding() != 0 {
			t.Error("outstanding requests after close")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceFailureFallsThroughToGlobalFS(t *testing.T) {
	// Failure injection: the SSD dies between two writes; the cache layer
	// must route subsequent writes to the global file system and the run
	// must still complete with all data persistent.
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if err := f.WriteContig(nil, 0, 4<<20); err != nil {
			t.Error(err)
		}
		rg.nvms[0].Device().SetFailed(true)
		if err := f.WriteContig(nil, 4<<20, 4<<20); err != nil {
			t.Error(err)
		}
		c := f.InstalledHooks().(*Cache)
		if c.Stats.WriteThroughs != 1 {
			t.Errorf("write-throughs = %d, want 1", c.Stats.WriteThroughs)
		}
		// Clear the failure so close can discard the cache file cleanly.
		rg.nvms[0].Device().SetFailed(false)
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 8<<20 {
		t.Fatalf("global FS got %d, want all 8 MB", rg.fs.TotalBytesWritten())
	}
}

// TestCachesShareOptionsAndMeters checks that the caches of one collective
// open share what is the same on every rank: the parsed options and the
// metric handles. An invalid e10_* hint still makes every rank fall back to
// the uncached path.
func TestCachesShareOptionsAndMeters(t *testing.T) {
	rg := newRig(t, 2, 2, store.NewMem)
	rg.k.SetMetrics(metrics.New())
	caches := make([]*Cache, rg.w.Size())
	fallbacks := 0
	err := rg.w.Run(func(r *mpi.Rank) {
		me := rg.w.Comm().RankOf(r)
		f := rg.open(r, t, mpi.Info{HintCache: CacheEnable})
		caches[me] = f.InstalledHooks().(*Cache)
		if err := f.WriteContig(nil, int64(me)<<20, 1<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		bad := rg.open(r, t, mpi.Info{HintCache: CacheEnable, HintFlushFlag: "sometimes"})
		if bad.Stats.CacheFallback {
			fallbacks++
		}
		_ = bad.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for me, c := range caches {
		if c.opts != caches[0].opts {
			t.Errorf("rank %d parsed its own options", me)
		}
		if m := c.meters(); m == nil || m != caches[0].meters() {
			t.Errorf("rank %d: metric handles not shared", me)
		}
	}
	if got := caches[0].meters().writes.Total(); got != int64(len(caches)) {
		t.Errorf("shared cache_writes_total = %d, want %d", got, len(caches))
	}
	if fallbacks != len(caches) {
		t.Errorf("%d of %d ranks fell back on an invalid e10 hint", fallbacks, len(caches))
	}
}
