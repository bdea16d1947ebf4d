package burst

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// bbRig builds 2 compute nodes + the pool's proxy nodes on one fabric.
func bbRig(t *testing.T, cfg Config, factory store.Factory) (*Pool, *mpi.World, *pfs.System, *adio.Registry) {
	t.Helper()
	k := sim.NewKernel(1)
	const compute = 2
	fab := netsim.New(k, netsim.Config{
		Nodes: compute + cfg.Proxies, InjRate: 3 * sim.GBps, EjeRate: 3 * sim.GBps,
		Latency: 2 * sim.Microsecond, MemRate: 6 * sim.GBps,
	})
	pcfg := pfs.DefaultConfig()
	pcfg.TargetJitter = nil
	fs := pfs.New(k, pcfg, factory)
	w := mpi.NewWorldOn(k, fab, 2, compute)
	clients := make([]*pfs.Client, compute)
	for i := range clients {
		clients[i] = fs.NewClient(fab.Node(i))
	}
	bbNodes := make([]*netsim.Node, cfg.Proxies)
	bbClients := make([]*pfs.Client, cfg.Proxies)
	for i := 0; i < cfg.Proxies; i++ {
		bbNodes[i] = fab.Node(compute + i)
		bbClients[i] = fs.NewClient(bbNodes[i])
	}
	pool := NewPool(k, cfg, bbNodes, bbClients, factory)
	reg := adio.NewRegistry(adio.NewUFSDriver(func(n int) *pfs.Client { return clients[n] }))
	return pool, w, fs, reg
}

func TestBurstAbsorbsAndDrains(t *testing.T) {
	cfg := DefaultConfig()
	pool, w, fs, reg := bbRig(t, cfg, store.NewNull)
	err := w.Run(func(r *mpi.Rank) {
		f, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: w.Comm(), Registry: reg, Path: "out", Create: true,
			Hooks: pool.HooksFactory(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteContig(nil, int64(r.ID())*(32<<20), 32<<20); err != nil {
			t.Error(err)
		}
		// Close returns without waiting for the drain (IME semantics).
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err) // includes drainer-deadlock detection
	}
	total := int64(4 * 32 << 20)
	if pool.Absorbed != total {
		t.Fatalf("absorbed = %d, want %d", pool.Absorbed, total)
	}
	if pool.Drained != total {
		t.Fatalf("drained = %d, want %d", pool.Drained, total)
	}
	if fs.TotalBytesWritten() < total {
		t.Fatalf("global FS got %d bytes", fs.TotalBytesWritten())
	}
	if pool.PendingDrains() != 0 {
		t.Fatal("queues must be empty at quiescence")
	}
}

func TestBurstPreservesContent(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run; skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.WaitDrainOnClose = true
	pool, w, fs, reg := bbRig(t, cfg, store.NewMem)
	err := w.Run(func(r *mpi.Rank) {
		f, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: w.Comm(), Registry: reg, Path: "out", Create: true,
			Hooks: pool.HooksFactory(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		// Cross a slab boundary so both proxies are involved.
		data := bytes.Repeat([]byte{byte(r.ID() + 1)}, 10<<20)
		if err := f.WriteContig(store.Bytes(data, int64(r.ID())*(10<<20)), int64(r.ID())*(10<<20), int64(len(data))); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := fs.Lookup("out")
	got := make([]byte, 4*10<<20)
	meta.Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for rank := 0; rank < 4; rank++ {
		base := rank * 10 << 20
		for _, idx := range []int{0, 5 << 20, 10<<20 - 1} {
			if got[base+idx] != byte(rank+1) {
				t.Fatalf("rank %d byte %d = %d", rank, idx, got[base+idx])
			}
		}
	}
}

func TestBurstWaitDrainOnClose(t *testing.T) {
	for _, wait := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.WaitDrainOnClose = wait
		pool, w, fs, reg := bbRig(t, cfg, store.NewNull)
		var drainedAtClose int64
		err := w.Run(func(r *mpi.Rank) {
			f, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: w.Comm(), Registry: reg, Path: "out", Create: true,
				Hooks: pool.HooksFactory(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.WriteContig(nil, int64(r.ID())*(64<<20), 64<<20); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			// Every rank has closed beyond this point; with
			// WaitDrainOnClose each close waited for that rank's drain.
			w.Comm().Barrier(r)
			if w.Comm().RankOf(r) == 0 {
				drainedAtClose = fs.TotalBytesWritten()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		total := int64(4 * 64 << 20)
		if wait && drainedAtClose < total {
			t.Fatalf("WaitDrainOnClose: only %d of %d drained at close", drainedAtClose, total)
		}
		if !wait && drainedAtClose >= total {
			t.Fatal("without WaitDrainOnClose the drain should still be in flight at close")
		}
		if fs.TotalBytesWritten() < total {
			t.Fatal("drain must finish eventually")
		}
	}
}

func TestBurstIngestionCappedByProxyCount(t *testing.T) {
	// 1 proxy vs 4 proxies: absorption time scales with the tier size —
	// the paper's scalability argument against fixed-size burst buffers.
	ingest := func(proxies int) sim.Time {
		cfg := DefaultConfig()
		cfg.Proxies = proxies
		pool, w, _, reg := bbRig(t, cfg, store.NewNull)
		var took sim.Time
		err := w.Run(func(r *mpi.Rank) {
			f, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: w.Comm(), Registry: reg, Path: "out", Create: true,
				Hooks: pool.HooksFactory(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			t0 := r.Now()
			if err := f.WriteContig(nil, int64(r.ID())*(256<<20), 256<<20); err != nil {
				t.Error(err)
			}
			w.Comm().Barrier(r)
			if w.Comm().RankOf(r) == 0 {
				took = r.Now() - t0
			}
			_ = f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	if one, four := ingest(1), ingest(4); four >= one {
		t.Fatalf("more proxies must absorb faster: 1->%v 4->%v", one, four)
	}
}

func TestBurstHarnessCase(t *testing.T) {
	// Covered end-to-end through the harness in the root bench suite; here
	// just validate the default config.
	cfg := DefaultConfig()
	if cfg.Proxies < 1 || cfg.Device.WriteRate <= 0 || cfg.DrainChunk <= 0 {
		t.Fatalf("bad default config: %+v", cfg)
	}
}

func TestBurstProxyFullFallsThrough(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proxies = 1
	cfg.Device.Capacity = 1 << 20 // 1 MB proxy: fills immediately
	pool, w, fs, reg := bbRig(t, cfg, store.NewNull)
	err := w.Run(func(r *mpi.Rank) {
		f, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: w.Comm(), Registry: reg, Path: "out", Create: true,
			Hooks: pool.HooksFactory(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		// 8 MB exceeds the proxy capacity: the write must fall through to
		// the global file system and the data must still land.
		if err := f.WriteContig(nil, int64(r.ID())*(8<<20), 8<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.TotalBytesWritten() < 4*8<<20 {
		t.Fatalf("global FS got %d bytes, want all data", fs.TotalBytesWritten())
	}
}
