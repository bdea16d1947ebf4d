package h5lite

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
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

func TestContainerLayoutAndContent(t *testing.T) {
	env, w, fs := testEnv(t, 2, 2)
	var base0, base1 int64
	err := w.Run(func(r *mpi.Rank) {
		f, err := env.Open(r, w.Comm(), "ckpt", mpiio.ModeCreate|mpiio.ModeWrOnly,
			mpi.Info{adio.HintCBWrite: "enable"})
		if err != nil {
			t.Error(err)
			return
		}
		wr, err := Create(r, f)
		if err != nil {
			t.Error(err)
			return
		}
		ds0, err := wr.CreateDataset("alpha", 4096)
		if err != nil {
			t.Error(err)
			return
		}
		ds1, err := wr.CreateDataset("beta", 8192)
		if err != nil {
			t.Error(err)
			return
		}
		base0, base1 = ds0.Base, ds1.Base
		me := f.Comm().RankOf(r)
		chunk := int64(1024)
		data := bytes.Repeat([]byte{byte(me + 1)}, int(chunk))
		if err := wr.WriteAll(ds0, int64(me)*chunk, data, chunk); err != nil {
			t.Error(err)
		}
		if err := wr.Close(); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if base0%dataAlign != 0 || base1%dataAlign != 0 {
		t.Fatalf("dataset bases not aligned: %d %d", base0, base1)
	}
	if base1 < base0+4096 {
		t.Fatal("datasets overlap")
	}
	meta := fs.Lookup("ckpt")
	sig := make([]byte, 8)
	meta.Store().ReadAt(store.Bytes(sig, 0), 0, int64(len(sig)))
	if !bytes.Equal(sig, signature) {
		t.Fatalf("superblock signature = %q", sig)
	}
	// Dataset content: rank r wrote byte r+1 at base0 + r*1024.
	for me := 0; me < 4; me++ {
		b := make([]byte, 1024)
		meta.Store().ReadAt(store.Bytes(b, base0+int64(me)*1024), base0+int64(me)*1024, int64(len(b)))
		if b[0] != byte(me+1) || b[1023] != byte(me+1) {
			t.Fatalf("dataset bytes for rank %d wrong: %d", me, b[0])
		}
	}
}

func TestOutOfBoundsWriteRejected(t *testing.T) {
	env, w, _ := testEnv(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := env.Open(r, w.Comm(), "f", mpiio.ModeCreate, nil)
		wr, _ := Create(r, f)
		ds, _ := wr.CreateDataset("d", 100)
		if err := wr.WriteAll(ds, 50, nil, 100); err == nil {
			t.Error("out-of-bounds dataset write must fail")
		}
		_ = wr.Close()
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriterLifecycle(t *testing.T) {
	env, w, _ := testEnv(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := env.Open(r, w.Comm(), "f", mpiio.ModeCreate, nil)
		wr, _ := Create(r, f)
		if _, err := wr.CreateDataset("d", -1); err == nil {
			t.Error("negative size must fail")
		}
		if err := wr.Close(); err != nil {
			t.Error(err)
		}
		if err := wr.Close(); err == nil {
			t.Error("double close must fail")
		}
		if _, err := wr.CreateDataset("late", 10); err == nil {
			t.Error("create after close must fail")
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTotalBytesGrows(t *testing.T) {
	env, w, _ := testEnv(t, 1, 1)
	err := w.Run(func(r *mpi.Rank) {
		f, _ := env.Open(r, w.Comm(), "f", mpiio.ModeCreate, nil)
		wr, _ := Create(r, f)
		before := wr.TotalBytes()
		_, _ = wr.CreateDataset("d", 1<<20)
		if wr.TotalBytes() < before+1<<20 {
			t.Error("TotalBytes must account dataset space")
		}
		_ = wr.Close()
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
