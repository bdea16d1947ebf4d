package adio

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/store"
)

// secondCall is the payload of a block-cyclic pattern's second write:
// blockCyclic's bytes, inverted.
func secondCall(segs []extent.Extent, data []byte) ([]extent.Extent, []byte) {
	for i := range data {
		data[i] = ^data[i]
	}
	return segs, data
}

// TestMixedPayloadWritesZeros pins the rule that mixing payload and
// metadata-only ranks writes zeros for the metadata-only ranks' extents,
// over a file whose first, all-payload write left other bytes there. In the second write rank 1 passes nil data; in the sieved variant
// rank 2 also writes nothing, so its blocks are holes in the middle of
// mostly covered windows, which read-modify-write keeps.
func TestMixedPayloadWritesZeros(t *testing.T) {
	const blocks, block = 4, 1024
	for _, sieved := range []bool{false, true} {
		t.Run(fmt.Sprintf("sieved=%v", sieved), func(t *testing.T) {
			cl := newCluster(t, 1, 2, 2, store.NewMem)
			n := cl.w.Size()
			var sievedWrites int64
			err := cl.w.Run(func(r *mpi.Rank) {
				f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "mix.dat", Create: true,
					Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "2", HintCBBufferSize: "4096"}})
				if err != nil {
					t.Error(err)
					return
				}
				for call := 0; call < 2; call++ {
					segs, data := blockCyclic(n, r.ID(), block, blocks)
					if call == 1 {
						segs, data = secondCall(segs, data)
					}
					switch {
					case call == 1 && r.ID() == 1:
						data = nil
					case call == 1 && r.ID() == 2 && sieved:
						segs, data = nil, []byte{}
					}
					if err := f.WriteStridedColl(segs, data); err != nil {
						t.Error(err)
					}
				}
				sievedWrites += f.Stats.SievedWrites
				_ = f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			if (sievedWrites > 0) != sieved {
				t.Fatalf("%d sieved writes, want sieving %v", sievedWrites, sieved)
			}
			got := make([]byte, n*blocks*block)
			cl.fs.Lookup("mix.dat").Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
			for rank := 0; rank < n; rank++ {
				segs, want := secondCall(blockCyclic(n, rank, block, blocks))
				if rank == 2 && sieved {
					segs, want = blockCyclic(n, rank, block, blocks)
				}
				if rank == 1 {
					want = make([]byte, len(want))
				}
				var cursor int64
				for _, s := range segs {
					for b := s.Off; b < s.End(); b++ {
						if got[b] != want[cursor+b-s.Off] {
							t.Fatalf("rank %d byte %d = %d, want %d", rank, b, got[b], want[cursor+b-s.Off])
						}
					}
					cursor += s.Len
				}
			}
		})
	}
}

// TestCollectiveBufferAllocation gates the bytes a payload two-phase
// write and read allocate per payload byte they move. Nothing is staged:
// the aggregators' store writes copy from the senders' buffers and their
// store reads into the requesters' buffers, and the messages only lend
// those buffers. What remains is the per-round plan and message
// bookkeeping, measured at 0.046 (64 KiB windows) and 0.023 (256 KiB);
// the gate allows 10% over the larger. A payload, buffer or window
// allocated afresh per round shows up as at least one more byte per byte.
func TestCollectiveBufferAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs 3 payload write+read reps per buffer size")
	}
	const blocks, block, maxPerByte = 32, 16 << 10, 0.046 * 1.1
	for _, cb := range []int{64 << 10, 256 << 10} {
		t.Run("cb="+strconv.Itoa(cb), func(t *testing.T) {
			cl := newCluster(t, 1, 4, 2, store.NewMem)
			n := cl.w.Size()
			info := mpi.Info{HintCBWrite: "enable", HintCBRead: "enable",
				HintCBNodes: "4", HintCBBufferSize: strconv.Itoa(cb)}
			var ms runtime.MemStats
			var from, to uint64
			err := cl.w.Run(func(r *mpi.Rank) {
				c := cl.w.Comm()
				f, err := OpenColl(r, OpenArgs{Comm: c, Registry: cl.reg, Path: "gate.dat", Create: true, Info: info})
				if err != nil {
					t.Error(err)
					return
				}
				segs, data := blockCyclic(n, r.ID(), block, blocks)
				got := make([]byte, len(data))
				for rep := 0; rep < 3; rep++ {
					// Reps 1 and 2 are measured; rep 0 sizes the file and
					// the handle's reused state.
					c.Barrier(r)
					if rep == 1 && r.ID() == 0 {
						runtime.ReadMemStats(&ms)
						from = ms.TotalAlloc
					}
					if err := f.WriteStridedColl(segs, data); err != nil {
						t.Error(err)
					}
					if err := f.ReadStridedColl(segs, got); err != nil {
						t.Error(err)
					}
					if !bytes.Equal(got, data) {
						t.Errorf("rank %d rep %d: read back other bytes", r.ID(), rep)
					}
				}
				c.Barrier(r)
				if r.ID() == 0 {
					runtime.ReadMemStats(&ms)
					to = ms.TotalAlloc
				}
				_ = f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			moved := 2 * 2 * n * blocks * block // 2 reps of a write and a read
			perByte := float64(to-from) / float64(moved)
			t.Logf("cb %d: %.3f bytes allocated per payload byte moved", cb, perByte)
			if perByte > maxPerByte {
				t.Fatalf("cb %d: %.3f bytes allocated per payload byte moved, want <= %.3f", cb, perByte, maxPerByte)
			}
		})
	}
}
