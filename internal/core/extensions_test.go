package core

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// These tests cover the future-work extensions (§VI of the paper) that
// this reproduction implements on top of the published system: cache
// reads (e10_cache_read) and congestion-aware flushing (flush_adaptive).

func TestParseOptionsCacheReadAndAdaptive(t *testing.T) {
	o, err := ParseOptions(mpi.Info{
		HintCache:     "enable",
		HintCacheRead: "enable",
		HintFlushFlag: FlushAdaptive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.ReadCache || o.FlushFlag != FlushAdaptive {
		t.Fatalf("options = %+v", o)
	}
	if _, err := ParseOptions(mpi.Info{HintCacheRead: "sometimes"}); err == nil {
		t.Fatal("invalid e10_cache_read must be rejected")
	}
}

func TestCacheReadServesLocalExtent(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable",
			HintCache:        "enable",
			HintCacheRead:    "enable",
			HintFlushFlag:    "flush_onclose", // global file still empty
		})
		payload := []byte("cached-bytes")
		if err := f.WriteContig(payload, 100, int64(len(payload))); err != nil {
			t.Error(err)
		}
		// The global file has nothing yet; the read must come from cache.
		if rg.fs.TotalBytesWritten() != 0 {
			t.Error("precondition: global file must still be empty")
		}
		buf := make([]byte, len(payload))
		f.ReadContig(buf, 100, 0)
		if !bytes.Equal(buf, payload) {
			t.Errorf("cache read returned %q", buf)
		}
		// A read outside the cached extent must fall through to the
		// global file (and read zeros).
		miss := make([]byte, 4)
		f.ReadContig(miss, 1<<20, 0)
		if !bytes.Equal(miss, []byte{0, 0, 0, 0}) {
			t.Errorf("miss read = %v", miss)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheReadDisabledByDefault(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable",
			HintCache:        "enable",
			HintFlushFlag:    "flush_onclose",
		})
		payload := []byte("cached")
		if err := f.WriteContig(payload, 0, int64(len(payload))); err != nil {
			t.Error(err)
		}
		// Without e10_cache_read the read goes to the (empty) global file.
		buf := make([]byte, len(payload))
		f.ReadContig(buf, 0, 0)
		if !bytes.Equal(buf, make([]byte, len(payload))) {
			t.Errorf("read must hit the global file, got %q", buf)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveFlushBacksOffUnderCongestion(t *testing.T) {
	run := func(congest bool) (sim.Time, int64) {
		rg := newRig(t, 4, 1, store.NewNull)
		var done sim.Time
		var backoffs int64
		err := rg.w.Run(func(r *mpi.Rank) {
			if r.ID() >= 1 {
				if congest {
					// Foreground traffic arriving mid-sync: service times
					// degrade relative to the thread's baseline.
					r.Compute(60 * sim.Millisecond)
					c := rg.fs.NewClient(r.Node())
					h, err := c.Open(r.Proc(), "noise", true, pfs.Striping{})
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < 40; i++ {
						h.WriteAt(r.Proc(), nil, int64(i)*(16<<20), 16<<20)
					}
				}
				return
			}
			f, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: rg.w.NewComm([]int{0}), Registry: rg.reg, Path: "g", Create: true,
				Info: mpi.Info{
					adio.HintCBWrite: "enable",
					HintCache:        "enable",
					HintFlushFlag:    FlushAdaptive,
				},
				Hooks: rg.hooks(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.WriteContig(nil, 0, 32<<20); err != nil {
				t.Error(err)
			}
			if err := f.Close(); err != nil {
				t.Error(err)
			}
			done = r.Now()
			// Recover the backoff counter through the hook.
			if c, ok := f.InstalledHooks().(*Cache); ok {
				backoffs = c.Stats.Backoffs
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return done, backoffs
	}
	quietT, quietB := run(false)
	busyT, busyB := run(true)
	if busyB <= quietB {
		t.Fatalf("congestion must trigger backoffs: quiet=%d busy=%d", quietB, busyB)
	}
	if busyT <= quietT {
		t.Fatalf("congested adaptive flush should take longer: %v vs %v", quietT, busyT)
	}
}

func TestAdaptiveFlushStillDeliversAllData(t *testing.T) {
	rg := newRig(t, 1, 1, store.NewNull)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable",
			HintCache:        "enable",
			HintFlushFlag:    FlushAdaptive,
		})
		if err := f.WriteContig(nil, 0, 8<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rg.fs.TotalBytesWritten() < 8<<20 {
		t.Fatal("adaptive flush lost data")
	}
}
