package core

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
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
		if err := f.WriteContig(store.Bytes(payload, 100), 100, int64(len(payload))); err != nil {
			t.Error(err)
		}
		// The global file has nothing yet; the read must come from cache.
		if rg.fs.TotalBytesWritten() != 0 {
			t.Error("precondition: global file must still be empty")
		}
		buf := make([]byte, len(payload))
		f.ReadContig(store.Bytes(buf, 100), 100, int64(len(buf)))
		if !bytes.Equal(buf, payload) {
			t.Errorf("cache read returned %q", buf)
		}
		// A read outside the cached extent must fall through to the
		// global file (and read zeros).
		miss := make([]byte, 4)
		f.ReadContig(store.Bytes(miss, 1<<20), 1<<20, int64(len(miss)))
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
		if err := f.WriteContig(store.Bytes(payload, 0), 0, int64(len(payload))); err != nil {
			t.Error(err)
		}
		// Without e10_cache_read the read goes to the (empty) global file.
		buf := make([]byte, len(payload))
		f.ReadContig(store.Bytes(buf, 0), 0, int64(len(buf)))
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

// TestAdaptiveFlushBaselineIsBestChunk: the adaptive baseline is the
// extent's fastest chunk so far, not its first. Foreground writes start
// just before the sync thread does, so the extent's first chunk runs slow,
// the next ones run at full speed, and one more collides with the tail of
// the foreground traffic. That chunk runs about as slow as the first, so
// only a baseline lowered to the fast chunks backs off there, and the
// backoff's excess is the chunk's time minus the fastest chunk's.
func TestAdaptiveFlushBaselineIsBestChunk(t *testing.T) {
	rg := newRig(t, 4, 1, store.NewNull)
	tr := trace.New()
	rg.k.SetTracer(tr)
	var backoffs int64
	err := rg.w.Run(func(r *mpi.Rank) {
		if r.ID() >= 1 {
			// The cache write of rank 0 ends at about 134 ms.
			r.Compute(110 * sim.Millisecond)
			h, err := rg.fs.NewClient(r.Node()).Open(r.Proc(), "noise", true, pfs.Striping{})
			if err == nil {
				err = h.WriteAt(r.Proc(), nil, 0, 16<<20)
			}
			if err != nil {
				t.Error(err)
			}
			return
		}
		f, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: rg.w.NewComm([]int{0}), Registry: rg.reg, Path: "g", Create: true,
			Info:  mpi.Info{HintCache: "enable", HintFlushFlag: FlushAdaptive},
			Hooks: rg.hooks(),
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteContig(nil, 0, 64<<20); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		backoffs = f.InstalledHooks().(*Cache).Stats.Backoffs
	})
	if err != nil {
		t.Fatal(err)
	}
	var chunks []int64 // chunk durations, in completion order
	best, checked := int64(0), 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Name == "sync_chunk":
			chunks = append(chunks, ev.Dur)
			if best == 0 || ev.Dur < best {
				best = ev.Dur
			}
		case ev.Name == "adaptive_backoff":
			took := chunks[len(chunks)-1]
			if excess := ev.Args[0].Val; excess != took-best {
				t.Errorf("chunk %d took %d ns and backed off by %d ns, want %d over the best chunk so far (%d ns)",
					len(chunks)-1, took, excess, took-best, best)
			}
			checked++
		}
	}
	if len(chunks) < 2 || chunks[1] >= chunks[0] {
		t.Fatalf("chunk times %v: the scenario needs a second chunk faster than the first", chunks)
	}
	if backoffs == 0 || int64(checked) != backoffs {
		t.Fatalf("%d backoffs, %d traced: a chunk as slow as the first must back off against the faster ones", backoffs, checked)
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
