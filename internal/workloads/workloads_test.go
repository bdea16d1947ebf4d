package workloads

import (
	"testing"
	"testing/quick"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"

	"repro/internal/mpiio"
)

func testEnv(t *testing.T, nodes, perNode int) (*mpiio.Env, *mpi.World, *pfs.System) {
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
	env := &mpiio.Env{Registry: adio.NewRegistry(adio.NewUFSDriver(func(n int) *pfs.Client { return clients[n] }))}
	return env, w, fs
}

func TestGridNearCubic(t *testing.T) {
	cases := map[int][3]int{
		8:   {2, 2, 2},
		512: {8, 8, 8},
		64:  {4, 4, 4},
	}
	for n, want := range cases {
		px, py, pz := grid(n)
		if px*py*pz != n {
			t.Fatalf("grid(%d) = %d,%d,%d does not multiply out", n, px, py, pz)
		}
		if [3]int{px, py, pz} != want {
			t.Fatalf("grid(%d) = %d,%d,%d, want %v", n, px, py, pz, want)
		}
	}
	px, py, pz := grid(6)
	if px*py*pz != 6 {
		t.Fatalf("grid(6) broken: %d %d %d", px, py, pz)
	}
}

// Property: coll_perf segments of all ranks exactly tile the file.
func TestCollPerfSegmentsTileFile(t *testing.T) {
	f := func(seed int64) bool {
		cp := CollPerf{RunBytes: 64, RunsY: 2, RunsZ: 2}
		for _, nranks := range []int{1, 2, 4, 8, 12} {
			var cover extent.Set
			var total int64
			for r := 0; r < nranks; r++ {
				for _, s := range cp.Segments(r, nranks) {
					if cover.Overlaps(s) {
						t.Logf("overlap at rank %d seg %v", r, s)
						return false
					}
					cover.Add(s)
					total += s.Len
				}
			}
			if total != cp.FileBytes(nranks) {
				t.Logf("nranks=%d total=%d want=%d", nranks, total, cp.FileBytes(nranks))
				return false
			}
			if cover.Len() != 1 || cover.Max() != total {
				t.Logf("nranks=%d coverage has holes: %v", nranks, cover.Extents())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestCollPerfIsInterleaved(t *testing.T) {
	cp := CollPerf{RunBytes: 64, RunsY: 2, RunsZ: 2}
	segs0 := cp.Segments(0, 8)
	segs1 := cp.Segments(1, 8)
	// Rank 1's first byte must precede rank 0's last byte (strided pattern).
	if segs1[0].Off >= segs0[len(segs0)-1].End() {
		t.Fatal("coll_perf pattern is not interleaved")
	}
}

func TestIOROffsets(t *testing.T) {
	ior := IOR{BlockBytes: 1 << 20, Segments: 3}
	if ior.FileBytes(4) != 12<<20 {
		t.Fatalf("file bytes = %d", ior.FileBytes(4))
	}
	if ior.Offset(2, 4, 1) != (4+2)<<20 {
		t.Fatalf("offset = %d", ior.Offset(2, 4, 1))
	}
}

func TestFlashIOSizesMatchPaper(t *testing.T) {
	fl := DefaultFlashIO()
	if fl.BlockBytes() != 32<<10 {
		t.Fatalf("block bytes = %d, want 32 KB", fl.BlockBytes())
	}
	// 768 KB per process per block across all 24 variables (§IV-C).
	perBlockAllVars := fl.BlockBytes() * int64(fl.Vars)
	if perBlockAllVars != 768<<10 {
		t.Fatalf("per-block-all-vars = %d, want 768 KB", perBlockAllVars)
	}
	// Slightly over 30 GB at 512 processes.
	total := fl.FileBytes(512)
	if total < 30<<30 || total > 32<<30 {
		t.Fatalf("checkpoint = %d bytes, want ~30 GB", total)
	}
}

func TestCollPerfFileBytesDefault(t *testing.T) {
	cp := DefaultCollPerf()
	if cp.BlockBytes() != 64<<20 {
		t.Fatalf("block = %d, want 64 MB", cp.BlockBytes())
	}
	if cp.FileBytes(512) != 32<<30 {
		t.Fatalf("file = %d, want 32 GB", cp.FileBytes(512))
	}
	ior := DefaultIOR()
	if ior.FileBytes(512) != 32<<30 {
		t.Fatalf("ior file = %d, want 32 GB", ior.FileBytes(512))
	}
}

// runPhase drives one workload write phase end-to-end with payloads and
// verifies the resulting file content against the workload's pattern.
func runPhase(t *testing.T, w Workload, verify func(t *testing.T, fs *pfs.System, nranks int)) {
	t.Helper()
	env, world, fs := testEnv(t, 2, 2)
	err := world.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, world.Comm(), "out", mpiio.ModeCreate|mpiio.ModeWrOnly,
			mpi.Info{adio.HintCBWrite: "enable", adio.HintCBNodes: "2", adio.HintCBBufferSize: "65536"})
		if err != nil {
			t.Error(err)
			return
		}
		if err := w.WritePhase(r, f, true); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, fs, world.Size())
}

func TestCollPerfWritePhaseContent(t *testing.T) {
	cp := CollPerf{RunBytes: 512, RunsY: 2, RunsZ: 2}
	runPhase(t, cp, func(t *testing.T, fs *pfs.System, nranks int) {
		meta := fs.Lookup("out")
		if meta == nil {
			t.Fatal("no file")
		}
		if meta.Size() != cp.FileBytes(nranks) {
			t.Fatalf("size = %d, want %d", meta.Size(), cp.FileBytes(nranks))
		}
		for r := 0; r < nranks; r++ {
			for _, s := range cp.Segments(r, nranks) {
				buf := make([]byte, s.Len)
				meta.Store().ReadAt(store.Bytes(buf, s.Off), s.Off, int64(len(buf)))
				for i, b := range buf {
					if want := patternByte(r, s.Off+int64(i)); b != want {
						t.Fatalf("rank %d seg %v byte %d: got %d want %d", r, s, i, b, want)
					}
				}
			}
		}
	})
}

func TestIORWritePhaseContent(t *testing.T) {
	ior := IOR{BlockBytes: 4096, Segments: 3}
	runPhase(t, ior, func(t *testing.T, fs *pfs.System, nranks int) {
		meta := fs.Lookup("out")
		if meta.Size() != ior.FileBytes(nranks) {
			t.Fatalf("size = %d", meta.Size())
		}
		for r := 0; r < nranks; r++ {
			for s := 0; s < ior.Segments; s++ {
				off := ior.Offset(r, nranks, s)
				buf := make([]byte, 8)
				meta.Store().ReadAt(store.Bytes(buf, off), off, int64(len(buf)))
				if buf[0] != patternByte(r, off) {
					t.Fatalf("segment %d rank %d wrong content", s, r)
				}
			}
		}
	})
}

func TestFlashIOWritePhaseContent(t *testing.T) {
	fl := FlashIO{BlocksPerProc: 2, ZonesPerBlock: 64, Vars: 3, BytesPerZone: 8}
	runPhase(t, fl, func(t *testing.T, fs *pfs.System, nranks int) {
		meta := fs.Lookup("out")
		if meta == nil {
			t.Fatal("no file")
		}
		// The checkpoint must be at least as large as the raw data.
		if meta.Size() < fl.FileBytes(nranks) {
			t.Fatalf("size = %d < data %d", meta.Size(), fl.FileBytes(nranks))
		}
		// Written coverage must include all dataset bytes plus metadata.
		written := meta.Store().Written().TotalBytes()
		if written < fl.FileBytes(nranks) {
			t.Fatalf("written = %d < data %d", written, fl.FileBytes(nranks))
		}
	})
}

func TestFlashIOPlotFile(t *testing.T) {
	env, world, fs := testEnv(t, 1, 2)
	fl := FlashIO{BlocksPerProc: 2, ZonesPerBlock: 64, Vars: 3, BytesPerZone: 8}
	err := world.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, world.Comm(), "plot", mpiio.ModeCreate|mpiio.ModeWrOnly,
			mpi.Info{adio.HintCBWrite: "enable"})
		if err != nil {
			t.Error(err)
			return
		}
		if err := fl.PlotFile(r, f, 2, true, false); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Lookup("plot") == nil {
		t.Fatal("plot file missing")
	}
}
