package core

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/store"
)

// TestSyncThreadReusesOneBuffer checks that the sync thread moves every
// chunk of a busy period through one ind_wr_buffer_size buffer, as the
// paper's pthread does, instead of allocating a buffer per chunk. The
// second write of the same range reuses every store page, so what it
// allocates while its 64 chunks sync is one buffer plus per-chunk
// bookkeeping: far less than one chunk buffer per chunk.
func TestSyncThreadReusesOneBuffer(t *testing.T) {
	const chunk, size = 64 << 10, 4 << 20
	rg := newRig(t, 1, 1, store.NewMem)
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
		pass := func() {
			if err := f.WriteContig(data, 0, size); err != nil {
				t.Error(err)
			}
			if err := f.Flush(); err != nil {
				t.Error(err)
			}
		}
		pass()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pass()
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
		if c := f.InstalledHooks().(*Cache); c.Stats.SyncedBytes != 2*size {
			t.Errorf("synced %d bytes, want %d", c.Stats.SyncedBytes, 2*size)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if limit := uint64(size / 4); allocated > limit {
		t.Fatalf("second pass allocated %d bytes syncing %d chunks, want <= %d", allocated, size/chunk, limit)
	}
	t.Logf("second pass allocated %d bytes syncing %d chunks", allocated, size/chunk)
}
