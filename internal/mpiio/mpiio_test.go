package mpiio

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

func testEnv(t *testing.T, nodes, perNode int) (*Env, *mpi.World, *pfs.System) {
	t.Helper()
	k := sim.NewKernel(1)
	fab := netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: 3 * sim.GBps, EjeRate: 3 * sim.GBps,
		Latency: 2 * sim.Microsecond, MemRate: 6 * sim.GBps,
	})
	cfg := pfs.DefaultConfig()
	cfg.TargetJitter = nil
	fs := pfs.New(k, cfg, store.NewMem)
	w := mpi.NewWorld(k, fab, perNode)
	clients := make([]*pfs.Client, nodes)
	for i := range clients {
		clients[i] = fs.NewClient(fab.Node(i))
	}
	env := &Env{Registry: adio.NewRegistry(adio.NewUFSDriver(func(n int) *pfs.Client { return clients[n] }))}
	return env, w, fs
}

func TestFlatTypeBasics(t *testing.T) {
	v := Vector(3, 10, 100)
	if v.Size() != 30 || v.Extent != 210 {
		t.Fatalf("vector size=%d extent=%d", v.Size(), v.Extent)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Contiguous(64)
	if c.Size() != 64 || c.Extent != 64 {
		t.Fatal("contiguous wrong")
	}
	bad := FlatType{Segs: []extent.Extent{{Off: 0, Len: 10}, {Off: 5, Len: 10}}, Extent: 20}
	if bad.Validate() == nil {
		t.Fatal("overlapping segments must fail validation")
	}
}

func TestViewMapDefault(t *testing.T) {
	v := View{Disp: 100}
	segs, err := v.Map(50, 20)
	if err != nil || len(segs) != 1 || segs[0] != (extent.Extent{Off: 150, Len: 20}) {
		t.Fatalf("default map = %v, %v", segs, err)
	}
}

func TestViewMapVectorTiling(t *testing.T) {
	// Filetype: 10 data bytes then 90 hole, extent 100.
	v := View{Disp: 1000, Filetype: Vector(1, 10, 10)}
	v.Filetype.Extent = 100
	// View bytes 5..25 => file [1005,1010) [1100,1110) [1200,1205).
	segs, err := v.Map(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []extent.Extent{{Off: 1005, Len: 5}, {Off: 1100, Len: 10}, {Off: 1200, Len: 5}}
	if len(segs) != len(want) {
		t.Fatalf("segs = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segs = %v, want %v", segs, want)
		}
	}
}

func TestViewMapMergesAdjacent(t *testing.T) {
	// Fully dense filetype: tiles are adjacent in the file and must merge.
	v := View{Disp: 0, Filetype: Contiguous(10)}
	segs, err := v.Map(0, 35)
	if err != nil || len(segs) != 1 || segs[0].Len != 35 {
		t.Fatalf("dense view must merge: %v %v", segs, err)
	}
}

// Property: Map covers exactly n bytes, monotonically increasing, within
// the data regions of the filetype, in a slice sized once by maxExtents
// (dense vectors, stride == block, merge across segments and tiles).
func TestViewMapProperty(t *testing.T) {
	f := func(voRaw, nRaw uint16, blockRaw, strideRaw uint8) bool {
		block := int64(blockRaw%32) + 1
		stride := block + int64(strideRaw%32)
		v := View{Disp: 7, Filetype: Vector(3, block, stride)}
		vo, n := int64(voRaw%1000), int64(nRaw%1000)
		segs, err := v.Map(vo, n)
		if err != nil {
			return false
		}
		if n > 0 && int64(cap(segs)) != maxExtents(v.Filetype, v.Filetype.Size(), vo, n) {
			return false // Map regrew its output past the bound
		}
		var total int64
		last := int64(-1)
		for _, s := range segs {
			if s.Len <= 0 || s.Off <= last {
				return false
			}
			last = s.End() - 1
			total += s.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveWriteThroughView(t *testing.T) {
	env, w, fs := testEnv(t, 2, 2)
	// Each rank writes 4 interleaved 64-byte rows via a vector view.
	const rows, rowLen = 4, 64
	nranks := w.Size()
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "arr.dat", ModeCreate|ModeWrOnly,
			mpi.Info{adio.HintCBWrite: "enable", adio.HintCBNodes: "2"})
		if err != nil {
			t.Error(err)
			return
		}
		// Row-interleaved: rank r owns row r of every group of nranks rows.
		ft := Vector(rows, rowLen, int64(nranks*rowLen))
		if err := f.SetView(int64(r.ID()*rowLen), ft); err != nil {
			t.Error(err)
		}
		data := bytes.Repeat([]byte{byte(r.ID() + 1)}, rows*rowLen)
		if err := f.WriteAtAll(0, data, int64(len(data))); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := fs.Lookup("arr.dat")
	if meta == nil {
		t.Fatal("file missing")
	}
	got := make([]byte, nranks*rows*rowLen)
	meta.Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for row := 0; row < nranks*rows; row++ {
		owner := byte(row%nranks + 1)
		for b := 0; b < rowLen; b++ {
			if got[row*rowLen+b] != owner {
				t.Fatalf("row %d byte %d = %d, want %d", row, b, got[row*rowLen+b], owner)
			}
		}
	}
}

func TestIndependentWriteAndReadBack(t *testing.T) {
	env, w, _ := testEnv(t, 1, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "f", ModeCreate|ModeRdWr, nil)
		if err != nil {
			t.Error(err)
			return
		}
		payload := []byte(fmt.Sprintf("rank-%d-payload", r.ID()))
		off := int64(r.ID()) * 100
		if err := f.WriteAt(off, payload, int64(len(payload))); err != nil {
			t.Error(err)
		}
		if err := f.Sync(); err != nil {
			t.Error(err)
		}
		w.Comm().Barrier(r)
		// Read the other rank's data.
		other := (r.ID() + 1) % 2
		buf := make([]byte, len(payload))
		if err := f.ReadAt(int64(other)*100, buf, 0); err != nil {
			t.Error(err)
		}
		want := fmt.Sprintf("rank-%d-payload", other)
		if string(buf) != want {
			t.Errorf("read %q, want %q", buf, want)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeEnforcement(t *testing.T) {
	env, w, _ := testEnv(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "ro", ModeCreate|ModeRdOnly, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteAt(0, nil, 10); err == nil {
			t.Error("write on read-only file must fail")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err == nil {
			t.Error("double close must fail")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeleteOnClose(t *testing.T) {
	env, w, fs := testEnv(t, 1, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "tmp", ModeCreate|ModeWrOnly|ModeDeleteOnClose, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("tmp") != nil {
		t.Fatal("file must be deleted on close")
	}
}

func TestGetInfoEchoesHints(t *testing.T) {
	env, w, _ := testEnv(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "f", ModeCreate, mpi.Info{adio.HintCBNodes: "1", "e10_cache": "disable"})
		if err != nil {
			t.Error(err)
			return
		}
		info := f.GetInfo()
		if info[adio.HintCBNodes] != "1" || info["e10_cache"] != "disable" {
			t.Errorf("info = %v", info)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubarray3D(t *testing.T) {
	// Global 8x4x2 byte array, local 4x2x2 block at (4,2,0).
	ft, err := Subarray3D([3]int64{8, 4, 2}, [3]int64{4, 2, 2}, [3]int64{4, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	if ft.Size() != 4*2*2 || ft.Extent != 8*4*2 {
		t.Fatalf("size=%d extent=%d", ft.Size(), ft.Extent)
	}
	// First run: z=0,y=2 -> off = (0*4+2)*8+4 = 20.
	if ft.Segs[0] != (extent.Extent{Off: 20, Len: 4}) {
		t.Fatalf("segs[0] = %v", ft.Segs[0])
	}
	// Runs per block = ly*lz = 4.
	if len(ft.Segs) != 4 {
		t.Fatalf("runs = %d", len(ft.Segs))
	}
}

func TestSubarray3DRejectsBadDims(t *testing.T) {
	if _, err := Subarray3D([3]int64{4, 4, 4}, [3]int64{5, 1, 1}, [3]int64{0, 0, 0}); err == nil {
		t.Fatal("oversized block must fail")
	}
	if _, err := Subarray3D([3]int64{4, 4, 4}, [3]int64{2, 2, 2}, [3]int64{3, 0, 0}); err == nil {
		t.Fatal("out-of-range start must fail")
	}
	if _, err := Subarray3D([3]int64{0, 4, 4}, [3]int64{1, 1, 1}, [3]int64{0, 0, 0}); err == nil {
		t.Fatal("zero global dim must fail")
	}
}

// Property: subarrays of all ranks in a grid tile the global array exactly.
func TestSubarray3DTilesProperty(t *testing.T) {
	f := func(bx, by, bz uint8) bool {
		lx, ly, lz := int64(bx%5)+1, int64(by%4)+1, int64(bz%3)+1
		const px, py, pz = 2, 2, 2
		g := [3]int64{px * lx, py * ly, pz * lz}
		var cover extent.Set
		var total int64
		for iz := int64(0); iz < pz; iz++ {
			for iy := int64(0); iy < py; iy++ {
				for ix := int64(0); ix < px; ix++ {
					ft, err := Subarray3D(g, [3]int64{lx, ly, lz},
						[3]int64{ix * lx, iy * ly, iz * lz})
					if err != nil {
						return false
					}
					for _, s := range ft.Segs {
						if cover.Overlaps(s) {
							return false
						}
						cover.Add(s)
						total += s.Len
					}
				}
			}
		}
		want := g[0] * g[1] * g[2]
		return total == want && cover.Len() == 1 && cover.Max() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFileSizeOps(t *testing.T) {
	env, w, fs := testEnv(t, 1, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "f", ModeCreate|ModeRdWr, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteAt(0, nil, 1000); err != nil {
			t.Error(err)
		}
		w.Comm().Barrier(r)
		if f.Size() != 1000 {
			t.Errorf("size = %d", f.Size())
		}
		if err := f.SetSize(500); err != nil {
			t.Error(err)
		}
		if f.Size() != 500 {
			t.Errorf("size after truncate = %d", f.Size())
		}
		if err := f.Preallocate(2000); err != nil {
			t.Error(err)
		}
		if f.Size() != 2000 {
			t.Errorf("size after preallocate = %d", f.Size())
		}
		if err := f.SetSize(-1); err == nil {
			t.Error("negative size must fail")
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("f").Size() != 2000 {
		t.Fatal("global size wrong")
	}
}

func TestCollectiveReadThroughViewAndSubarray(t *testing.T) {
	env, w, _ := testEnv(t, 2, 2)
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "arr", ModeCreate|ModeRdWr,
			mpi.Info{adio.HintCBWrite: "enable", adio.HintCBRead: "enable", adio.HintCBNodes: "2"})
		if err != nil {
			t.Error(err)
			return
		}
		me := w.Comm().RankOf(r)
		// 2x2x1 process grid over a 64x8x1 global byte array.
		ft, err := Subarray3D([3]int64{64, 8, 1}, [3]int64{32, 4, 1},
			[3]int64{int64(me%2) * 32, int64(me/2) * 4, 0})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.SetView(0, ft); err != nil {
			t.Error(err)
		}
		data := bytes.Repeat([]byte{byte(me + 1)}, 32*4)
		if err := f.WriteAtAll(0, data, int64(len(data))); err != nil {
			t.Error(err)
		}
		got := make([]byte, len(data))
		if err := f.ReadAtAll(0, got, 0); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d: subarray read-back mismatch", me)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
