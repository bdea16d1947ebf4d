package mpiwrap

import (
	"testing"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"

	"repro/internal/mpiio"
)

const sampleConfig = `
# MPIWRAP configuration used in the paper's experiments
[file "ckpt*"]
e10_cache = enable
e10_cache_flush_flag = flush_immediate
defer_close = true

[file "plot*"]
romio_cb_write = enable
defer_close = false
`

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig(sampleConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Rules) != 2 {
		t.Fatalf("rules = %d", len(cfg.Rules))
	}
	r := cfg.Find("ckpt.0001")
	if r == nil || !r.DeferClose {
		t.Fatalf("ckpt rule = %+v", r)
	}
	if v, _ := r.Hints.Get("e10_cache"); v != "enable" {
		t.Fatalf("hints = %v", r.Hints)
	}
	p := cfg.Find("plot.0001")
	if p == nil || p.DeferClose {
		t.Fatalf("plot rule = %+v", p)
	}
	if cfg.Find("other") != nil {
		t.Fatal("unmatched file must have no rule")
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"[file \"x\"\nk = v",
		"[group \"x\"]\n",
		"key = value\n",
		"[file \"x\"]\ndefer_close = banana\n",
		"[file \"x\"]\nnot-an-assignment\n",
		"[file \"\"]\n",
		"[filename \"x\"]\n",
		"[file \"a\" \"b\"]\n",
		"[file \"ckpt*]\n",
		"[file ckpt*]\n",
		"[file]\n",
		"[file\"x\"]\n",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"ckpt.0003": "ckpt",
		"ckpt.0004": "ckpt",
		"file.dat":  "file.dat",
		"plain":     "plain",
		"a.b.c.12":  "a.b.c",
		"trailing.": "trailing.",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

// wrapRig builds a cluster with local SSDs for deferred-close tests.
func wrapRig(t *testing.T) (*mpiio.Env, *mpi.World, *pfs.System) {
	t.Helper()
	k := sim.NewKernel(1)
	fab := netsim.New(k, netsim.Config{
		Nodes: 1, InjRate: 3 * sim.GBps, EjeRate: 3 * sim.GBps,
		Latency: 2 * sim.Microsecond, MemRate: 6 * sim.GBps,
	})
	cfg := pfs.DefaultConfig()
	cfg.TargetJitter = nil
	fs := pfs.New(k, cfg, store.NewNull)
	w := mpi.NewWorld(k, fab, 1)
	client := fs.NewClient(fab.Node(0))
	dev := nvm.NewDevice(k, "ssd", "ssd", nvm.DeviceConfig{
		WriteRate: 500 * sim.MBps, ReadRate: 520 * sim.MBps,
		Latency: 100 * sim.Microsecond, Capacity: 1 << 30,
	})
	localFS := nvm.NewFS(dev, nvm.FSConfig{SupportsFallocate: true}, store.NewNull)
	coreEnv := &core.Env{LocalFS: func(int) *nvm.FS { return localFS }, Locks: fs.Locks}
	env := &mpiio.Env{
		Registry: adio.NewRegistry(adio.NewUFSDriver(func(int) *pfs.Client { return client })),
		Hooks:    coreEnv.HooksFactory(),
	}
	return env, w, fs
}

func TestDeferredCloseTransformsWorkflow(t *testing.T) {
	env, w, fs := wrapRig(t)
	cfg, err := ParseConfig(sampleConfig)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *mpi.Rank) {
		wr := New(env, cfg, r)
		// Phase 0: open + write + "close" ckpt.0000.
		f0, err := wr.FileOpen(w.Comm(), "ckpt.0000", mpiio.ModeCreate|mpiio.ModeWrOnly, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := f0.WriteAt(0, nil, 8<<20); err != nil {
			t.Error(err)
		}
		if err := wr.FileClose(f0); err != nil {
			t.Error(err)
		}
		if wr.Outstanding() != 1 || wr.DeferredCloses != 1 {
			t.Errorf("close must be deferred: outstanding=%d", wr.Outstanding())
		}
		// The cache hint was injected: data must still be only in cache
		// (flush_immediate sync is in flight; close has not waited yet).
		r.Compute(sim.FromSeconds(2))
		// Phase 1: opening ckpt.0001 really closes ckpt.0000.
		f1, err := wr.FileOpen(w.Comm(), "ckpt.0001", mpiio.ModeCreate|mpiio.ModeWrOnly, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if wr.Outstanding() != 0 {
			t.Error("previous file must be really closed at next open")
		}
		if fs.TotalBytesWritten() < 8<<20 {
			t.Error("deferred close must have completed the sync")
		}
		if err := wr.FileClose(f1); err != nil {
			t.Error(err)
		}
		// Finalize closes everything still outstanding.
		if err := wr.Finalize(); err != nil {
			t.Error(err)
		}
		if wr.Outstanding() != 0 {
			t.Error("finalize must drain outstanding files")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonMatchingFilesCloseImmediately(t *testing.T) {
	env, w, _ := wrapRig(t)
	cfg, _ := ParseConfig(sampleConfig)
	err := w.Run(func(r *mpi.Rank) {
		wr := New(env, cfg, r)
		f, err := wr.FileOpen(w.Comm(), "other.dat", mpiio.ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := wr.FileClose(f); err != nil {
			t.Error(err)
		}
		if wr.Outstanding() != 0 || wr.RealCloses != 1 {
			t.Error("non-matching file must close for real")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUserHintsWinOverConfig(t *testing.T) {
	env, w, _ := wrapRig(t)
	cfg, _ := ParseConfig(sampleConfig)
	err := w.Run(func(r *mpi.Rank) {
		wr := New(env, cfg, r)
		f, err := wr.FileOpen(w.Comm(), "ckpt.0000", mpiio.ModeCreate,
			mpi.Info{core.HintCache: "disable"})
		if err != nil {
			t.Error(err)
			return
		}
		if got := f.GetInfo()[core.HintCache]; got != "disable" {
			t.Errorf("user hint must win, got %q", got)
		}
		_ = wr.FileClose(f)
		_ = wr.Finalize()
	})
	if err != nil {
		t.Fatal(err)
	}
}
