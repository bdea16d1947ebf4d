package nvm

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/extent"
	"repro/internal/sim"
	"repro/internal/store"
)

func testDevice(k *sim.Kernel, capacity int64) *Device {
	return NewDevice(k, "ssd", "ssd0", DeviceConfig{
		WriteRate: 100 * sim.MBps,
		ReadRate:  200 * sim.MBps,
		Latency:   10 * sim.Microsecond,
		Capacity:  capacity,
	})
}

func TestWriteChargesDeviceTime(t *testing.T) {
	k := sim.NewKernel(1)
	fs := NewFS(testDevice(k, 1<<30), FSConfig{SupportsFallocate: true}, store.NewMem)
	var end sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		f, err := fs.Create("cache")
		if err != nil {
			t.Error(err)
			return
		}
		if err := f.WriteAt(p, nil, 0, 10_000_000); err != nil { // 10 MB at 100 MB/s = 100 ms
			t.Error(err)
		}
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 100*sim.Millisecond + 10*sim.Microsecond; end != want {
		t.Fatalf("write end = %v, want %v", end, want)
	}
}

func TestReadBackRoundTrip(t *testing.T) {
	k := sim.NewKernel(1)
	fs := NewFS(testDevice(k, 1<<20), FSConfig{SupportsFallocate: true}, store.NewMem)
	k.Spawn("rw", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, []byte("payload"), 100, 7); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 7)
		f.ReadAt(p, buf, 100, 7)
		if !bytes.Equal(buf, []byte("payload")) {
			t.Errorf("read %q", buf)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	k := sim.NewKernel(1)
	fs := NewFS(testDevice(k, 1000), FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, nil, 0, 800); err != nil {
			t.Error(err)
		}
		err := f.WriteAt(p, nil, 800, 300)
		if !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleCannotStrandBytes is the regression test for the ENOSPC
// accounting bug: a file handle surviving its FS.Remove could keep
// reserving device bytes that no Remove would ever return (the file was
// gone from the namespace), permanently stranding capacity. Stale handles
// now fail with ErrStale and reserve nothing.
func TestStaleHandleCannotStrandBytes(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1000)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, nil, 0, 800); err != nil {
			t.Error(err)
		}
		if err := fs.Remove("f"); err != nil {
			t.Error(err)
		}
		if dev.Used() != 0 {
			t.Fatalf("used after remove = %d, want 0", dev.Used())
		}
		// The stale handle must not be able to claim capacity again.
		if err := f.WriteAt(p, nil, 0, 100); !errors.Is(err, ErrStale) {
			t.Errorf("stale write: want ErrStale, got %v", err)
		}
		buf := make([]byte, 4)
		if err := f.ReadAt(p, buf, 0, 4); !errors.Is(err, ErrStale) {
			t.Errorf("stale read: want ErrStale, got %v", err)
		}
		if dev.Used() != 0 {
			t.Fatalf("stale handle stranded %d bytes", dev.Used())
		}
		// The full capacity is still available to a fresh file.
		g, err := fs.Create("g")
		if err != nil {
			t.Fatal(err)
		}
		if err := g.WriteAt(p, nil, 0, 1000); err != nil {
			t.Errorf("fresh file denied reclaimed capacity: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRemovedPagesStayOutOfReach removes a payload file whose pages a
// second file then reuses from the cluster's pool. The removed handle
// must read ErrStale and FS.Files must not list it, so fault injection,
// which walks Files, cannot corrupt the recycled pages; and even a
// CorruptAt through the stale handle's own store leaves the new file's
// bytes alone, because Release dropped its pages.
func TestRemovedPagesStayOutOfReach(t *testing.T) {
	k := sim.NewKernel(1)
	pool := bufpool.New()
	fs := NewFS(testDevice(k, 1<<30), FSConfig{SupportsFallocate: true}, store.PooledMemChecksummed(pool))
	const size = 256 << 10
	old := bytes.Repeat([]byte{0x11}, size)
	fresh := bytes.Repeat([]byte{0x22}, size)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("discarded")
		if err := f.WriteAt(p, old, 0, size); err != nil {
			t.Error(err)
			return
		}
		if err := fs.Remove("discarded"); err != nil {
			t.Error(err)
			return
		}
		g, _ := fs.Create("reuser")
		if err := g.WriteAt(p, fresh, 0, size); err != nil {
			t.Error(err)
			return
		}
		if n := f.Store().Written().TotalBytes(); n != 0 {
			t.Errorf("the removed file's store still holds %d bytes", n)
		}
		if err := f.ReadAt(p, make([]byte, 4), 0, 4); !errors.Is(err, ErrStale) {
			t.Errorf("removed handle's read: want ErrStale, got %v", err)
		}
		for _, h := range fs.Files() {
			if h == f {
				t.Error("FS.Files lists the removed file")
			}
		}
		f.Store().(store.Integrity).CorruptAt(0, size)
		got := make([]byte, size)
		if err := g.ReadAt(p, got, 0, size); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, fresh) {
			t.Error("the removed file's store still reaches the recycled pages")
		}
		if bad := g.Store().(store.Integrity).VerifyExtent(extent.Extent{Len: size}); len(bad) != 0 {
			t.Errorf("the reusing file verifies corrupt at %v", bad)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedReserveLeavesAccountingIntact pins the all-or-nothing property
// of File.reserve: an allocation denied by ENOSPC must advance neither the
// file's allocation map nor the device counter, even when an eviction
// (Remove of a neighbour) is interleaved between attempts.
func TestFailedReserveLeavesAccountingIntact(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1000)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		a, _ := fs.Create("a")
		b, _ := fs.Create("b")
		if err := a.WriteAt(p, nil, 0, 600); err != nil {
			t.Error(err)
		}
		// Over-ask: denied, and nothing may move.
		if err := b.WriteAt(p, nil, 0, 500); !errors.Is(err, ErrNoSpace) {
			t.Errorf("want ErrNoSpace, got %v", err)
		}
		if dev.Used() != 600 || b.Allocated() != 0 {
			t.Fatalf("failed reserve moved accounting: used=%d b.alloc=%d", dev.Used(), b.Allocated())
		}
		// Concurrent eviction frees a's bytes; the retry must now fit and
		// the books must balance exactly.
		if err := fs.Remove("a"); err != nil {
			t.Error(err)
		}
		if err := b.WriteAt(p, nil, 0, 500); err != nil {
			t.Errorf("retry after eviction: %v", err)
		}
		if dev.Used() != 500 || dev.Used() != b.Allocated() {
			t.Fatalf("books out of balance: used=%d b.alloc=%d", dev.Used(), b.Allocated())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPunchReleasesCleanExtents(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1000)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, nil, 0, 800); err != nil {
			t.Error(err)
		}
		if freed := f.Punch(extentOf(100, 300)); freed != 300 {
			t.Errorf("punch freed %d, want 300", freed)
		}
		if dev.Used() != 500 || f.Allocated() != 500 {
			t.Errorf("after punch: used=%d alloc=%d, want 500", dev.Used(), f.Allocated())
		}
		// Punching the same range again is a no-op.
		if freed := f.Punch(extentOf(100, 300)); freed != 0 {
			t.Errorf("double punch freed %d", freed)
		}
		// The freed range can be re-reserved.
		if err := f.WriteAt(p, nil, 100, 300); err != nil {
			t.Errorf("rewrite of punched range: %v", err)
		}
		if dev.Used() != 800 {
			t.Errorf("after rewrite: used=%d, want 800", dev.Used())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReturnsSpace(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1000)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, nil, 0, 1000); err != nil {
			t.Error(err)
		}
		if dev.Used() != 1000 {
			t.Errorf("used = %d", dev.Used())
		}
		if err := fs.Remove("f"); err != nil {
			t.Error(err)
		}
		if dev.Used() != 0 {
			t.Errorf("used after remove = %d", dev.Used())
		}
		if fs.Exists("f") {
			t.Error("file still exists")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFallocateFastVsSlow(t *testing.T) {
	run := func(fallocate bool) sim.Time {
		k := sim.NewKernel(1)
		fs := NewFS(testDevice(k, 1<<30), FSConfig{SupportsFallocate: fallocate}, store.NewNull)
		var end sim.Time
		k.Spawn("w", func(p *sim.Proc) {
			f, _ := fs.Create("f")
			if err := f.Fallocate(p, 0, 100_000_000); err != nil {
				t.Error(err)
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	fast, slow := run(true), run(false)
	if fast >= slow {
		t.Fatalf("fallocate (%v) must beat write-zeros fallback (%v)", fast, slow)
	}
	if slow < 900*sim.Millisecond { // 100 MB at 100 MB/s
		t.Fatalf("write-zeros fallback too fast: %v", slow)
	}
}

func TestFallocateIdempotent(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1000)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.Fallocate(p, 0, 500); err != nil {
			t.Error(err)
		}
		if err := f.Fallocate(p, 0, 500); err != nil {
			t.Error(err)
		}
		if dev.Used() != 500 || f.Allocated() != 500 {
			t.Errorf("used = %d alloc = %d, want 500", dev.Used(), f.Allocated())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSemantics(t *testing.T) {
	k := sim.NewKernel(1)
	fs := NewFS(testDevice(k, 1000), FSConfig{}, store.NewNull)
	if _, err := fs.Open("missing", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	f, err := fs.Open("new", true)
	if err != nil || f == nil {
		t.Fatalf("create-open failed: %v", err)
	}
	if _, err := fs.Create("new"); !errors.Is(err, ErrExists) {
		t.Fatalf("want ErrExists, got %v", err)
	}
	f2, err := fs.Open("new", false)
	if err != nil || f2 != f {
		t.Fatal("reopen must return same file")
	}
}

func TestDefaultDeviceConfig(t *testing.T) {
	cfg := DefaultDeviceConfig()
	if cfg.Capacity != 30<<30 || cfg.WriteRate <= 0 || cfg.ReadRate < cfg.WriteRate {
		t.Fatalf("suspicious default config: %+v", cfg)
	}
}

func TestNoSpaceInjection(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1<<20)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewNull)
	k.Spawn("w", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		dev.SetNoSpace(true)
		if err := f.WriteAt(p, nil, 0, 100); !errors.Is(err, ErrNoSpace) {
			t.Errorf("want injected ErrNoSpace, got %v", err)
		}
		// ENOSPC is per-operation: clearing it restores service.
		dev.SetNoSpace(false)
		if err := f.WriteAt(p, nil, 0, 100); err != nil {
			t.Errorf("write after clearing: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailedDeviceReadAt(t *testing.T) {
	k := sim.NewKernel(1)
	dev := testDevice(k, 1<<20)
	fs := NewFS(dev, FSConfig{SupportsFallocate: true}, store.NewMem)
	k.Spawn("rw", func(p *sim.Proc) {
		f, _ := fs.Create("f")
		if err := f.WriteAt(p, []byte("data"), 0, 4); err != nil {
			t.Error(err)
		}
		dev.SetFailed(true)
		buf := make([]byte, 4)
		if err := f.ReadAt(p, buf, 0, 4); !errors.Is(err, ErrIO) {
			t.Errorf("want ErrIO from failed device, got %v", err)
		}
		if err := f.WriteAt(p, nil, 4, 4); !errors.Is(err, ErrIO) {
			t.Errorf("want ErrIO write, got %v", err)
		}
		dev.SetFailed(false)
		if err := f.ReadAt(p, buf, 0, 4); err != nil {
			t.Errorf("read after repair: %v", err)
		}
		if !bytes.Equal(buf, []byte("data")) {
			t.Errorf("payload lost across failure: %q", buf)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
