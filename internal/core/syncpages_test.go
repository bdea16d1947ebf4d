package core

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/adio"
	"repro/internal/bufpool"
	"repro/internal/mpi"
	"repro/internal/store"
)

// pageAddr returns the address of the stored byte at off as s hands it to
// a read: a MemStore hands a sink its page's own bytes, so two stores
// return the same address exactly when they share the page.
func pageAddr(s store.Store, off int64) *byte {
	var at addrSink
	s.ReadAt(&at, off, 1)
	return at.p
}

type addrSink struct{ p *byte }

func (a *addrSink) WriteAt(p []byte, _ int64) { a.p = &p[0] }

// TestSyncThreadSharesCachePages checks that the sync thread copies no
// byte: the global file's page at a synced offset is the cache file's own
// page. A rewrite of a synced range therefore takes fresh cache pages,
// since the first pass's pages are shared with the global file, and its
// sync hands the global file those pages, which drops the first pass's.
// From the third pass on, the cache recycles the pages the global file
// released, so what a pass allocates while its 64 chunks sync is
// per-chunk bookkeeping: less than an eighth of one chunk (3,216 bytes
// measured; the pass that kept one sync buffer allocated 22,936).
func TestSyncThreadSharesCachePages(t *testing.T) {
	const chunk, size = 64 << 10, 4 << 20
	rg := newRig(t, 1, 1, store.PooledMem(bufpool.New()))
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i % 251)
	}
	var allocated uint64
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
			adio.HintIndWrBufferSize: strconv.Itoa(chunk),
		})
		c := f.InstalledHooks().(*Cache)
		pass := func() {
			if err := f.WriteContig(store.Bytes(data, 0), 0, size); err != nil {
				t.Error(err)
			}
			if err := f.Flush(); err != nil {
				t.Error(err)
			}
		}
		pass()
		global := rg.fs.Lookup("global.dat").Store()
		for _, off := range []int64{0, size / 2, size - 1} {
			if pageAddr(global, off) != pageAddr(c.CacheStore(), off) {
				t.Errorf("the global file's page at %d is a copy, not the cache's page", off)
			}
		}
		pass()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		if c.Stats.SyncedBytes != 3*size {
			t.Errorf("synced %d bytes, want %d", c.Stats.SyncedBytes, 3*size)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(chunk / 8); allocated > limit {
		t.Fatalf("third pass allocated %d bytes syncing %d chunks, want <= %d", allocated, size/chunk, limit)
	}
	t.Logf("third pass allocated %d bytes syncing %d chunks", allocated, size/chunk)
}
