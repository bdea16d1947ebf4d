package adio

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/mpi"
	"repro/internal/store"
)

// Shuffle messages and read replies borrow their payload: a shuffle
// message views the sender's data, a read reply the aggregator's
// collective buffer. These tests hold the lifetime rule to the cases that
// could break it: copies of a message that arrive late or twice, a writer
// that reuses its buffer as soon as the call returns, and an aggregator
// whose collective buffer goes back to the pool, poisoned, at Close.

// viewInfo runs every call collectively over two aggregators in 4 KiB
// rounds, so each call takes several rounds and every rank sends and
// receives shuffle messages or replies.
var viewInfo = mpi.Info{HintCBWrite: "enable", HintCBRead: "enable", HintCBNodes: "2", HintCBBufferSize: "4096"}

// checkFile fails unless path holds every rank's blockCyclic bytes.
func checkFile(t *testing.T, cl *cluster, path string, chunk, cycles int) {
	t.Helper()
	n := cl.w.Size()
	got := make([]byte, n*chunk*cycles)
	cl.fs.Lookup(path).Store().ReadAt(got, 0)
	for rank := 0; rank < n; rank++ {
		segs, want := blockCyclic(n, rank, chunk, cycles)
		var cursor int64
		for _, s := range segs {
			if !bytes.Equal(got[s.Off:s.End()], want[cursor:cursor+s.Len]) {
				t.Fatalf("%s: rank %d segment %v holds other bytes than it wrote", path, rank, s)
			}
			cursor += s.Len
		}
	}
}

// TestShuffleOverLossyLinksWritesOriginalBytes: over links that drop and
// duplicate messages under reliable delivery, the plain and the failover
// write leave every rank's bytes in the file, although retransmitted and
// duplicated shuffle messages view the senders' buffers and every rank
// overwrites its buffer as soon as its call returns.
func TestShuffleOverLossyLinksWritesOriginalBytes(t *testing.T) {
	const chunk, cycles = 1024, 8
	for _, mode := range []string{"plain", "resilient"} {
		t.Run(mode, func(t *testing.T) {
			cl := newCluster(t, 3, 4, 2, store.NewMem)
			cl.w.EnableReliable()
			for node := 0; node < 4; node++ {
				cl.fab.Node(node).SetLossy(0.2)
				cl.fab.Node(node).SetDup(0.2)
			}
			info := maps.Clone(viewInfo)
			if mode == "resilient" {
				info[HintResilientWrite] = "enable"
			}
			err := cl.w.Run(func(r *mpi.Rank) {
				f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "lossy.dat", Create: true, Info: info})
				if err != nil {
					t.Error(err)
					return
				}
				segs, data := blockCyclic(cl.w.Size(), r.ID(), chunk, cycles)
				if err := f.WriteStridedColl(segs, data); err != nil {
					t.Error(err)
				}
				clear(data)
				_ = f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
			if cl.w.Retransmits() == 0 || cl.w.DedupDrops() == 0 {
				t.Fatalf("retransmits %d, dedup drops %d: the links exercised neither", cl.w.Retransmits(), cl.w.DedupDrops())
			}
			checkFile(t, cl, "lossy.dat", chunk, cycles)
		})
	}
}

// TestWriterReusesBufferAfterWriteAll: each rank overwrites its buffer
// right after a collective write returns, then refills it and writes a
// second file from it; both files hold what was written into them.
func TestWriterReusesBufferAfterWriteAll(t *testing.T) {
	const chunk, cycles = 2048, 4
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		segs, data := blockCyclic(cl.w.Size(), r.ID(), chunk, cycles)
		for k, path := range []string{"first.dat", "second.dat"} {
			f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: path, Create: true, Info: viewInfo})
			if err != nil {
				t.Error(err)
				return
			}
			if k == 1 {
				_, fresh := blockCyclic(cl.w.Size(), r.ID(), chunk, cycles)
				copy(data, fresh)
			}
			if err := f.WriteStridedColl(segs, data); err != nil {
				t.Error(err)
			}
			for i := range data {
				data[i] = ^data[i]
			}
			_ = f.Close()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkFile(t, cl, "first.dat", chunk, cycles)
	checkFile(t, cl, "second.dat", chunk, cycles)
}

// readBack writes every rank's blockCyclic bytes to n files in turn, reads
// each back collectively and closes it, which hands the aggregators'
// collective buffers back to the pool (poisoned under TestMain) for the
// next file to draw. It returns the ranks whose read-back differed.
func readBack(t *testing.T, cl *cluster, files int) []int {
	const chunk, cycles = 2048, 4
	var bad []int
	err := cl.w.Run(func(r *mpi.Rank) {
		segs, data := blockCyclic(cl.w.Size(), r.ID(), chunk, cycles)
		got := make([]byte, len(data))
		ok := true
		for k := 0; k < files; k++ {
			f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg,
				Path: fmt.Sprintf("readback.%d", k), Create: true, Info: viewInfo})
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.WriteStridedColl(segs, data); err != nil {
				t.Error(err)
			}
			if err := f.ReadStridedColl(segs, got); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			ok = ok && bytes.Equal(got, data)
			clear(got)
		}
		if !ok {
			bad = append(bad, r.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

// TestReadRepliesSurviveWindowRecycling: read replies view the
// aggregators' collective buffers, which Close poisons and hands to the
// next file; every rank still reads back what it wrote, file after file.
func TestReadRepliesSurviveWindowRecycling(t *testing.T) {
	if bad := readBack(t, newCluster(t, 1, 4, 2, store.NewMem), 3); len(bad) > 0 {
		t.Fatalf("ranks %v read back other bytes than they wrote", bad)
	}
}

// TestReadBackCatchesChangedWindow is the sabotage self-test of the read
// check above: an aggregator that clears its window right after sending a
// round's replies, while they still view it, must make ranks read back
// other bytes.
func TestReadBackCatchesChangedWindow(t *testing.T) {
	repliesSent = func(window []byte) { clear(window) }
	defer func() { repliesSent = nil }()
	if bad := readBack(t, newCluster(t, 1, 4, 2, store.NewMem), 1); len(bad) == 0 {
		t.Fatal("no rank read back other bytes although the aggregators cleared their windows under the replies")
	}
}
