package adio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/store"
)

// TestCollectiveReadRoundTrip writes an interleaved pattern collectively,
// then reads it back collectively and checks every byte.
func TestCollectiveReadRoundTrip(t *testing.T) {
	const chunk = 1024
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	nranks := cl.w.Size()
	info := mpi.Info{HintCBWrite: "enable", HintCBRead: "enable",
		HintCBNodes: "2", HintCBBufferSize: "4096"}
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg,
			Path: "rt.dat", Create: true, Info: info})
		if err != nil {
			t.Error(err)
			return
		}
		var segs []extent.Extent
		var data []byte
		for i := 0; i < 3; i++ {
			off := int64(i*nranks*chunk + r.ID()*chunk)
			segs = append(segs, extent.Extent{Off: off, Len: chunk})
			for b := 0; b < chunk; b++ {
				data = append(data, byte(r.ID()*37+i*5+b%199))
			}
		}
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(data))
		if err := f.ReadStridedColl(segs, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d: collective read mismatch", r.ID())
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveReadMatchesIndependent reads the same random pattern both
// ways and requires identical bytes.
func TestCollectiveReadMatchesIndependent(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := rng.Intn(3) + 2
		cl := newCluster(t, seed, nranks, 1, store.NewMem)

		// Prepare a file with known content via rank 0.
		fileLen := int64(rng.Intn(30000) + 10000)
		content := make([]byte, fileLen)
		rng.Read(content)

		// Random per-rank read patterns (possibly overlapping, reads may
		// overlap freely).
		type pat struct {
			segs []extent.Extent
		}
		pats := make([]pat, nranks)
		for i := range pats {
			off := int64(rng.Intn(1000))
			for off < fileLen-1 {
				l := int64(rng.Intn(2000) + 1)
				if off+l > fileLen {
					l = fileLen - off
				}
				pats[i].segs = append(pats[i].segs, extent.Extent{Off: off, Len: l})
				off += l + int64(rng.Intn(3000))
			}
		}
		ok := true
		err := cl.w.Run(func(r *mpi.Rank) {
			f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg,
				Path: "f", Create: true,
				Info: mpi.Info{HintCBRead: "enable", HintCBNodes: "2", HintCBBufferSize: "2048"}})
			if err != nil {
				t.Error(err)
				return
			}
			if cl.w.Comm().RankOf(r) == 0 {
				if err := f.WriteContig(content, 0, fileLen); err != nil {
					t.Error(err)
				}
			}
			cl.w.Comm().Barrier(r)
			segs := pats[r.ID()].segs
			var total int64
			for _, s := range segs {
				total += s.Len
			}
			collBuf := make([]byte, total)
			indBuf := make([]byte, total)
			if err := f.ReadStridedColl(segs, collBuf); err != nil {
				t.Error(err)
				return
			}
			if err := f.ReadStrided(segs, indBuf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(collBuf, indBuf) {
				ok = false
			}
			_ = f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveReadNonInterleavedFallsBack(t *testing.T) {
	cl := newCluster(t, 1, 2, 1, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true})
		if cl.w.Comm().RankOf(r) == 0 {
			if err := f.WriteContig(bytes.Repeat([]byte{9}, 4096), 0, 4096); err != nil {
				t.Error(err)
			}
		}
		cl.w.Comm().Barrier(r)
		// Disjoint ordered reads: the automatic check picks independent.
		seg := []extent.Extent{{Off: int64(r.ID()) * 2048, Len: 1024}}
		buf := make([]byte, 1024)
		if err := f.ReadStridedColl(seg, buf); err != nil {
			t.Error(err)
		}
		if r.ID() == 0 && buf[0] != 9 {
			t.Error("read returned wrong data")
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveReadZeroRanks(t *testing.T) {
	// Ranks with no read requests must still participate and return.
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBRead: "enable"}})
		if cl.w.Comm().RankOf(r) == 0 {
			if err := f.WriteContig(nil, 0, 1<<20); err != nil {
				t.Error(err)
			}
		}
		cl.w.Comm().Barrier(r)
		var segs []extent.Extent
		if r.ID()%2 == 0 {
			segs = []extent.Extent{{Off: int64(r.ID()) * 256, Len: 256},
				{Off: 4096 + int64(r.ID())*256, Len: 256}}
		}
		if err := f.ReadStridedColl(segs, nil); err != nil {
			t.Error(err)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveReadRecordsPhases(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBRead: "enable", HintCBNodes: "2"}})
		if cl.w.Comm().RankOf(r) == 0 {
			if err := f.WriteContig(nil, 0, 1<<20); err != nil {
				t.Error(err)
			}
		}
		cl.w.Comm().Barrier(r)
		segs := []extent.Extent{{Off: int64(r.ID()) * 256, Len: 256},
			{Off: 4096 + int64(r.ID())*256, Len: 256}}
		if err := f.ReadStridedColl(segs, nil); err != nil {
			t.Error(err)
		}
		log := f.Log()
		if log.Total("shuffle_all2all") <= 0 || log.Total("post_write") <= 0 {
			t.Errorf("rank %d missing collective-read phases", r.ID())
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBeeGFSDriverEndToEndContent(t *testing.T) {
	// The stripe-aligned driver must produce byte-identical results to the
	// generic one for an interleaved collective write.
	cl := newCluster(t, 3, 4, 2, store.NewMem)
	const chunk = 1500 // deliberately unaligned to the stripe unit
	nranks := cl.w.Size()
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg,
			Path: "beegfs:aligned.dat", Create: true,
			Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "3",
				HintStripingUnit: "4096", HintCBBufferSize: "8192"}})
		if err != nil {
			t.Error(err)
			return
		}
		var segs []extent.Extent
		var data []byte
		for i := 0; i < 3; i++ {
			off := int64(i*nranks*chunk + r.ID()*chunk)
			segs = append(segs, extent.Extent{Off: off, Len: chunk})
			for b := 0; b < chunk; b++ {
				data = append(data, byte((r.ID()*13+i*7+b)%251))
			}
		}
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := cl.fs.Lookup("aligned.dat")
	got := make([]byte, meta.Size())
	meta.Store().ReadAt(got, 0)
	for rank := 0; rank < nranks; rank++ {
		for i := 0; i < 3; i++ {
			base := i*nranks*chunk + rank*chunk
			for b := 0; b < chunk; b++ {
				if want := byte((rank*13 + i*7 + b) % 251); got[base+b] != want {
					t.Fatalf("byte %d = %d, want %d", base+b, got[base+b], want)
				}
			}
		}
	}
}

// TestCollectiveReadReportsReadErrors reads an interleaved pattern
// collectively after every storage target went down: every rank must
// return (none may wait forever for a reply), an aggregator with its own
// failed read reports that error, and every other rank reports that the
// collective read failed elsewhere.
func TestCollectiveReadReportsReadErrors(t *testing.T) {
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	n := cl.w.Size()
	info := mpi.Info{HintCBWrite: "enable", HintCBRead: "enable", HintCBNodes: "2", HintCBBufferSize: "4096"}
	errs := make([]error, n)
	aggs := make([]bool, n)
	returned := make([]bool, n)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "down.dat", Create: true, Info: info})
		if err != nil {
			t.Error(err)
			return
		}
		segs, data := blockCyclic(n, r.ID(), 1024, 3)
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		f.Comm().Barrier(r)
		for i := 0; i < cl.fs.Config().Targets; i++ {
			cl.fs.SetTargetDown(i, true)
		}
		errs[r.ID()] = f.ReadStridedColl(segs, make([]byte, len(data)))
		aggs[r.ID()] = f.IsAggregator()
		returned[r.ID()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range errs {
		switch {
		case !returned[id]:
			t.Errorf("rank %d never returned from the collective read", id)
		case aggs[id] && !errors.Is(errs[id], pfs.ErrTargetDown):
			t.Errorf("aggregator rank %d: error %v, want %v", id, errs[id], pfs.ErrTargetDown)
		case !aggs[id] && (errs[id] == nil || errs[id].Error() != "adio: collective read failed on another rank"):
			t.Errorf("rank %d: error %v, want the collective read to fail on another rank", id, errs[id])
		}
	}
}
