package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// payloadReadback runs one readback rep on a fresh 8x8 payload cluster:
// every rank writes its strided share of each of 2 files collectively
// through the E10 cache, syncs, reads it back collectively, compares and
// closes (discarding the cache file). data and got are the ranks' user
// buffers, kept across reps; prep, when non-nil, sees the cluster before
// the ranks start. It returns the payload bytes written.
func payloadReadback(t *testing.T, data, got [][]byte, prep func(*Cluster)) int64 {
	const nodes, perNode, files, blocks, block = 8, 8, 2, 32, 16 << 10
	cfg := Scaled(42, nodes, perNode)
	cfg.Payload = true
	cl := NewCluster(cfg)
	if prep != nil {
		prep(cl)
	}
	w := cl.World
	comm := w.Comm()
	n := w.Size()
	info := mpi.Info{
		adio.HintCBWrite: adio.HintEnable, adio.HintCBRead: adio.HintEnable,
		adio.HintCBNodes:     fmt.Sprint(nodes),
		core.HintCache:       core.CacheEnable,
		core.HintFlushFlag:   core.FlushImmediate,
		core.HintDiscardFlag: "enable",
		core.HintCacheRead:   "enable",
	}
	err := w.Run(func(r *mpi.Rank) {
		me := comm.RankOf(r)
		if data[me] == nil {
			data[me], got[me] = make([]byte, blocks*block), make([]byte, blocks*block)
		}
		for k := 0; k < files; k++ {
			f, err := cl.Env.Open(r, comm, fmt.Sprintf("readback.%d", k), mpiio.ModeCreate|mpiio.ModeRdWr, info)
			if err == nil {
				err = f.SetView(int64(me)*block, mpiio.Vector(blocks, block, int64(n)*block))
			}
			for i := range data[me] {
				data[me][i] = byte(me*131 + i*7 + k*13 + 1)
			}
			if err == nil {
				err = f.WriteAtAll(0, data[me], int64(len(data[me])))
			}
			if err == nil {
				err = f.Sync()
			}
			if err == nil {
				err = f.ReadAtAll(0, got[me], int64(len(got[me])))
			}
			if err == nil && !bytes.Equal(got[me], data[me]) {
				err = fmt.Errorf("rank %d file %d: read back other bytes", me, k)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return int64(n) * blocks * block * files
}

// TestPayloadAllocationPerByte gates the bytes a whole payload run
// allocates per payload byte written: an 8x8 cluster writes, syncs, reads
// back and closes 2 files, as the readback_64 benchmark does. After one
// warm rep, the measured rep must stay within 10% of the recorded 1.06
// bytes per byte. The cache file's pages are a floor of 1: each file's
// cache pages become its global file's pages, because the sync thread
// hands the global file the cache's pages instead of copying them, so the
// global file allocates none and the sync thread holds no buffer. The
// second file's cache cannot reuse the first one's pages, which its
// global file still holds after the discard. The rest is the per-round
// bookkeeping. Nothing stages a window: the aggregators' store writes copy
// from the senders' buffers and their store reads into the requesters'
// buffers. Copying each synced chunk through a sync buffer into pages of
// the global file's own measured 1.63 (1 for the global file's pages, 0.5
// for the cache's, as the second file reused the first one's, and the
// sync buffers); staging each window in a per-aggregator collective
// buffer on top of that 2.13, copying each message into a pooled buffer
// of its own 2.42, and allocating those afresh 5.17.
func TestPayloadAllocationPerByte(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs two 64-rank payload reps")
	}
	const recorded, maxPerByte = 1.06, 1.06 * 1.1
	data, got := make([][]byte, 64), make([][]byte, 64)
	payloadReadback(t, data, got, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	from := ms.TotalAlloc
	written := payloadReadback(t, data, got, nil)
	runtime.ReadMemStats(&ms)
	perByte := float64(ms.TotalAlloc-from) / float64(written)
	t.Logf("%.3f bytes allocated per payload byte written (recorded %.2f)", perByte, recorded)
	if perByte > maxPerByte {
		t.Fatalf("%.3f bytes allocated per payload byte written, want <= %.3f", perByte, maxPerByte)
	}
}
