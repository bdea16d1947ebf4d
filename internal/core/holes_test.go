package core

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/store"
)

// A write with holes must not fill them by read-modify-write through the
// cache: the global file may not yet hold an earlier write's bytes for a
// hole, and writing its stale bytes back through the cache would replace
// the earlier write when the cache syncs.

// TestCollectiveWriteKeepsUnsyncedBytesInHoles writes a block-cyclic
// pattern twice on one cached handle, rank 3 sitting the second call out.
// The second call's file domains differ from the first's, and rank 3's
// blocks are holes in mostly covered windows. Its bytes from the first call
// exist only in a cache until close, and must survive the second call.
func TestCollectiveWriteKeepsUnsyncedBytesInHoles(t *testing.T) {
	const chunk, blocks = 2048, 3
	for _, cacheRead := range []string{"disable", "enable"} {
		t.Run("cache_read="+cacheRead, func(t *testing.T) {
			rg := newRig(t, 2, 2, store.NewMem)
			pattern := func(rank, call int) ([]extent.Extent, []byte) {
				var segs []extent.Extent
				var data []byte
				for i := 0; i < blocks; i++ {
					segs = append(segs, extent.Extent{Off: int64(i*4*chunk + rank*chunk), Len: chunk})
					for b := 0; b < chunk; b++ {
						data = append(data, byte(rank*50+i*3+call*101+b%200))
					}
				}
				return segs, data
			}
			err := rg.w.Run(func(r *mpi.Rank) {
				f := rg.open(r, t, mpi.Info{
					adio.HintCBWrite: "enable", adio.HintCBNodes: "2", adio.HintCBBufferSize: "8192",
					HintCache: "enable", HintFlushFlag: "flush_onclose", HintCacheRead: cacheRead,
				})
				for call := 0; call < 2; call++ {
					segs, data := pattern(r.ID(), call)
					if call == 1 && r.ID() == 3 {
						segs, data = nil, []byte{}
					}
					if err := f.WriteStridedColl(segs, data); err != nil {
						t.Error(err)
					}
				}
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, blocks*4*chunk)
			rg.fs.Lookup("global.dat").Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
			for rank := 0; rank < 4; rank++ {
				call := 1
				if rank == 3 {
					call = 0
				}
				segs, data := pattern(rank, call)
				for i, s := range segs {
					if !bytes.Equal(got[s.Off:s.End()], data[i*chunk:(i+1)*chunk]) {
						t.Errorf("rank %d block [%d,%d) lost the bytes of write %d", rank, s.Off, s.End(), call)
					}
				}
			}
		})
	}
}

// TestIndependentWriteKeepsUnsyncedBytesInHoles fills the hole of a dense
// strided write with an earlier contiguous write that sits in the cache.
func TestIndependentWriteKeepsUnsyncedBytesInHoles(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewMem)
	fill := func(n int, v byte) []byte { return bytes.Repeat([]byte{v}, n) }
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{HintCache: "enable", HintFlushFlag: "flush_onclose"})
		if err := f.WriteContig(store.Bytes(fill(1024, 'x'), 1024), 1024, 1024); err != nil {
			t.Error(err)
		}
		segs := []extent.Extent{{Off: 0, Len: 1024}, {Off: 2048, Len: 2048}}
		if err := f.WriteStrided(segs, fill(3072, 'y')); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	rg.fs.Lookup("global.dat").Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for _, w := range []struct {
		off, n int
		v      byte
	}{{0, 1024, 'y'}, {1024, 1024, 'x'}, {2048, 2048, 'y'}} {
		if !bytes.Equal(got[w.off:w.off+w.n], fill(w.n, w.v)) {
			t.Errorf("[%d,%d) after close does not hold %q bytes", w.off, w.off+w.n, w.v)
		}
	}
}
