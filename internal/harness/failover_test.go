package harness

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
)

// crashTracker wires Cluster.OnCrash the way internal/chaos does: every
// cache opened on a node is registered, and a crash-node fault kills all
// of them. Registration happens in the hook factory — before AtOpenColl —
// so a crash can land while a cache is still replaying its journal.
type crashTracker struct {
	live []map[*core.Cache]struct{}
}

func trackCrashes(cl *Cluster) *crashTracker {
	ct := &crashTracker{live: make([]map[*core.Cache]struct{}, cl.Cfg.Nodes)}
	for i := range ct.live {
		ct.live[i] = make(map[*core.Cache]struct{})
	}
	cl.OnCrash = func(node int) {
		for c := range ct.live[node] {
			c.Crash()
		}
	}
	return ct
}

// factory wraps the core hook factory with live-cache registration.
func (ct *crashTracker) factory(cl *Cluster) adio.HooksFactory {
	base := cl.CoreEnv.HooksFactory()
	return func(f *adio.File) (adio.Hooks, error) {
		h, err := base(f)
		if c, ok := h.(*core.Cache); ok && err == nil {
			ct.live[f.Rank().Node().ID()][c] = struct{}{}
		}
		return h, err
	}
}

func crashPattern(rank int, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rank*37 + i*13 + 5)
	}
	return out
}

// verifyGlobal reads every rank's region back from the global file through
// a cache-less handle and compares it against the written pattern.
func verifyGlobal(t *testing.T, cl *Cluster, r *mpi.Rank, size int64) {
	t.Helper()
	vf, err := adio.OpenColl(r, adio.OpenArgs{
		Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
	})
	if err != nil {
		t.Errorf("verification open: %v", err)
		return
	}
	defer vf.Close()
	got := make([]byte, size)
	if err := vf.ReadContig(store.Bytes(got, int64(r.ID())*size), int64(r.ID())*size, size); err != nil {
		t.Errorf("verification read: %v", err)
		return
	}
	if want := crashPattern(r.ID(), int(size)); !bytes.Equal(got, want) {
		t.Errorf("rank %d: global bytes differ from written pattern", r.ID())
	}
}

// TestTwoNodeCrashesInOneRun crashes two different nodes, at different
// times, inside a single run — both through the fault engine and the
// cluster's OnCrash hook. The next session recovers both journals and
// every byte must reach the global file.
func TestTwoNodeCrashesInOneRun(t *testing.T) {
	const size = 1 << 20
	cfg := Scaled(3, 3, 1)
	cfg.Payload = true
	cl := NewCluster(cfg)
	ct := trackCrashes(cl)

	sched := &fault.Schedule{Faults: []fault.Fault{
		{Kind: fault.CrashNode, Node: 0, From: 10 * sim.Millisecond},
		{Kind: fault.CrashNode, Node: 1, From: 14 * sim.Millisecond},
	}}
	if _, err := cl.ArmFaults(sched); err != nil {
		t.Fatal(err)
	}

	err := cl.World.Run(func(r *mpi.Rank) {
		// Session 1: everyone writes into the cache; nodes 0 and 1 crash
		// while the data is journalled but unsynced (flush_onclose).
		f1, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
			Info: mpi.Info{
				adio.HintCBWrite: "enable", core.HintCache: "enable",
				core.HintFlushFlag: "flush_onclose",
			},
			Hooks: ct.factory(cl),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f1.WriteContig(store.Bytes(crashPattern(r.ID(), size), int64(r.ID())*size), int64(r.ID())*size, size); err != nil {
			t.Error(err)
		}
		r.Compute(20 * sim.Millisecond) // let both crash faults land
		err = f1.Close()
		if r.ID() <= 1 && err == nil {
			t.Errorf("rank %d: close on a crashed node must fail", r.ID())
		}
		if r.ID() == 2 && err != nil {
			t.Errorf("rank %d: close on the surviving node: %v", r.ID(), err)
		}
		cl.World.Comm().Barrier(r)

		// Session 2: the crashed nodes come back and replay their journals.
		f2, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
			Info: mpi.Info{
				adio.HintCBWrite: "enable", core.HintCache: "enable",
				core.HintCacheRecovery: "enable",
			},
			Hooks: ct.factory(cl),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if c, _ := f2.InstalledHooks().(*core.Cache); r.ID() <= 1 {
			if c == nil {
				t.Errorf("rank %d: recovery open fell back", r.ID())
			} else if c.Stats.RecoveredBytes != size {
				t.Errorf("rank %d: recovered %d bytes, want %d", r.ID(), c.Stats.RecoveredBytes, size)
			}
		}
		if err := f2.Close(); err != nil {
			t.Errorf("rank %d: recovery close: %v", r.ID(), err)
		}
		cl.World.Comm().Barrier(r)
		verifyGlobal(t, cl, r, size)
	})
	if err != nil {
		t.Fatal(err)
	}
	if keys := cl.CoreEnv.JournalKeys(); len(keys) != 0 {
		t.Fatalf("journals must be drained after recovery, still have %v", keys)
	}
}

// TestSecondCrashDuringJournalReplay crashes node 0 once, then again while
// the recovery open is replaying the first crash's journal. The replay
// must abort at a chunk boundary (standard-path fallback, no lock leaked,
// journal keeping exactly the still-unsynced extents) and a third session
// must finish the job with full byte durability.
func TestSecondCrashDuringJournalReplay(t *testing.T) {
	const size = 1 << 20
	cfg := Scaled(5, 2, 1)
	cfg.Payload = true
	cl := NewCluster(cfg)
	ct := trackCrashes(cl)

	sched := &fault.Schedule{Faults: []fault.Fault{{Kind: fault.CrashNode, Node: 0, From: 10 * sim.Millisecond}}}
	if _, err := cl.ArmFaults(sched); err != nil {
		t.Fatal(err)
	}

	cacheInfo := mpi.Info{
		adio.HintCBWrite: "enable", core.HintCache: "enable",
		core.HintFlushFlag: "flush_onclose", core.HintCacheRecovery: "enable",
	}
	err := cl.World.Run(func(r *mpi.Rank) {
		// Session 1: write, node 0 crashes with its 1 MB journalled.
		f1, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
			Info: cacheInfo, Hooks: ct.factory(cl),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f1.WriteContig(store.Bytes(crashPattern(r.ID(), size), int64(r.ID())*size), int64(r.ID())*size, size); err != nil {
			t.Error(err)
		}
		r.Compute(20 * sim.Millisecond)
		f1.Close() // errors on node 0, by design
		cl.World.Comm().Barrier(r)

		// Session 2: the second crash lands ~2 ms in, while node 0's replay
		// (two 512 KB chunks, several ms of SSD reads and PFS writes) is in
		// flight. The open must revert to the standard path.
		if r.ID() == 0 {
			cl.Kernel.After(2*sim.Millisecond, func() { cl.OnCrash(0) })
		}
		f2, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
			Info: cacheInfo, Hooks: ct.factory(cl),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if r.ID() == 0 {
			if !f2.Stats.CacheFallback {
				t.Error("interrupted replay must revert to the standard path")
			}
			if f2.InstalledHooks() != nil {
				t.Error("no cache hooks must survive the aborted replay")
			}
			if held := cl.FS.Locks.HeldLocks("global.dat"); held != 0 {
				t.Errorf("aborted replay leaked %d locks", held)
			}
			if len(cl.CoreEnv.JournalKeys()) == 0 {
				t.Error("journal must survive the interrupted replay")
			}
		}
		if err := f2.Close(); err != nil {
			t.Errorf("rank %d: session 2 close: %v", r.ID(), err)
		}
		cl.World.Comm().Barrier(r)

		// Session 3: no more faults; recovery drains what the interrupted
		// replay left behind.
		f3, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: cl.World.Comm(), Registry: cl.Env.Registry, Path: "global.dat", Create: true,
			Info: cacheInfo, Hooks: ct.factory(cl),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if c, _ := f3.InstalledHooks().(*core.Cache); r.ID() == 0 {
			if c == nil {
				t.Error("third session must get its cache back")
			} else if c.Stats.RecoveredBytes == 0 || c.Stats.RecoveredBytes > size {
				t.Errorf("third session recovered %d bytes, want (0,%d]", c.Stats.RecoveredBytes, size)
			}
		}
		if err := f3.Close(); err != nil {
			t.Errorf("rank %d: session 3 close: %v", r.ID(), err)
		}
		cl.World.Comm().Barrier(r)
		verifyGlobal(t, cl, r, size)
	})
	if err != nil {
		t.Fatal(err)
	}
	if keys := cl.CoreEnv.JournalKeys(); len(keys) != 0 {
		t.Fatalf("journals must be drained after the third session, still have %v", keys)
	}
}
