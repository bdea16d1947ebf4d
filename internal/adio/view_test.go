package adio

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/store"
)

// Two-phase messages lend buffers instead of carrying bytes: a shuffle
// message views the sender's data, which the aggregator's store write
// copies, and a read request views the requester's destination, into which
// the aggregator's store read copies. These tests hold the gather/scatter
// rule to the cases that could break it: copies of a message that arrive
// late or twice, a writer that reuses its buffer as soon as the call
// returns, and, as sabotage self-tests, a sender that changes its buffer
// too early and an aggregator that skips a requester.

// viewInfo runs every call collectively over two aggregators in 4 KiB
// rounds, so each call takes several rounds and every rank sends and
// receives shuffle messages or replies.
var viewInfo = mpi.Info{HintCBWrite: "enable", HintCBRead: "enable", HintCBNodes: "2", HintCBBufferSize: "4096"}

// checkFile fails unless path holds every rank's blockCyclic bytes.
func checkFile(t *testing.T, cl *cluster, path string, chunk, cycles int) {
	t.Helper()
	if bad := badSegments(cl, path, chunk, cycles); len(bad) > 0 {
		t.Fatalf("%s: %s", path, bad[0])
	}
}

// badSegments names each segment of path that does not hold the
// blockCyclic bytes of the rank that wrote it.
func badSegments(cl *cluster, path string, chunk, cycles int) []string {
	n := cl.w.Size()
	got := make([]byte, n*chunk*cycles)
	cl.fs.Lookup(path).Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	var bad []string
	for rank := 0; rank < n; rank++ {
		segs, want := blockCyclic(n, rank, chunk, cycles)
		var cursor int64
		for _, s := range segs {
			if !bytes.Equal(got[s.Off:s.End()], want[cursor:cursor+s.Len]) {
				bad = append(bad, fmt.Sprintf("rank %d segment %v holds other bytes than it wrote", rank, s))
			}
			cursor += s.Len
		}
	}
	return bad
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

// TestByteCheckCatchesChangedSendBuffer is the sabotage self-test of the
// write side: a sender that clears its buffer right after posting a
// round's shuffle messages, while the aggregator has yet to copy from it,
// must leave other bytes in the file than it wrote.
func TestByteCheckCatchesChangedSendBuffer(t *testing.T) {
	const chunk, cycles = 2048, 4
	shuffleSent = func(data []byte) { clear(data) }
	defer func() { shuffleSent = nil }()
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "early.dat", Create: true, Info: viewInfo})
		if err != nil {
			t.Error(err)
			return
		}
		segs, data := blockCyclic(cl.w.Size(), r.ID(), chunk, cycles)
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(badSegments(cl, "early.dat", chunk, cycles)) == 0 {
		t.Fatal("the file holds every rank's bytes although the senders cleared their buffers under the shuffle")
	}
}

// readBack writes every rank's blockCyclic bytes to n files in turn, reads
// each back collectively into a buffer filled with 0xee and closes it. It
// returns the ranks whose read-back differed.
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
			copy(got, bytes.Repeat([]byte{0xee}, len(got)))
			if err := f.ReadStridedColl(segs, got); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			ok = ok && bytes.Equal(got, data)
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

// TestReadScattersIntoEveryRequester: the aggregators' store reads copy
// each requested byte straight into the buffer its requester lent, file
// after file; every rank reads back what it wrote.
func TestReadScattersIntoEveryRequester(t *testing.T) {
	if bad := readBack(t, newCluster(t, 1, 4, 2, store.NewMem), 3); len(bad) > 0 {
		t.Fatalf("ranks %v read back other bytes than they wrote", bad)
	}
}

// TestReadBackCatchesSkippedScatter is the sabotage self-test of the read
// check above: an aggregator that leaves rank 1 out of its scatter must
// make rank 1, and only it, read back other bytes.
func TestReadBackCatchesSkippedScatter(t *testing.T) {
	dropScatter = func(src int) bool { return src == 1 }
	defer func() { dropScatter = nil }()
	if bad := readBack(t, newCluster(t, 1, 4, 2, store.NewMem), 1); !slices.Equal(bad, []int{1}) {
		t.Fatalf("ranks %v read back other bytes, want exactly rank 1, whose scatter the aggregators skipped", bad)
	}
}
