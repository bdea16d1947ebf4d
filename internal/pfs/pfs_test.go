package pfs

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/extent"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
)

func testSystem(k *sim.Kernel, targets int) (*System, *netsim.Fabric) {
	cfg := Config{
		Targets:            targets,
		TargetRate:         100 * sim.MBps,
		TargetLatency:      100 * sim.Microsecond,
		ClientRate:         1000 * sim.MBps,
		ClientRPCLatency:   10 * sim.Microsecond,
		MaxRPC:             1 << 20,
		MetaLatency:        100 * sim.Microsecond,
		DefaultStripeSize:  1 << 20,
		DefaultStripeCount: targets,
	}
	f := netsim.New(k, netsim.Config{
		Nodes: 4, InjRate: 10 * sim.GBps, EjeRate: 10 * sim.GBps,
		Latency: sim.Microsecond, MemRate: 10 * sim.GBps,
	})
	return New(k, cfg, store.NewMem), f
}

func TestOpenCreateLookup(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 4)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := c.Open(p, "missing", false, Striping{}); !errors.Is(err, ErrNotFound) {
			t.Errorf("want ErrNotFound, got %v", err)
		}
		h, err := c.Open(p, "f", true, Striping{StripeSize: 1 << 20, StripeCount: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if got := h.Meta().Striping(); got.StripeSize != 1<<20 || got.StripeCount != 2 {
			t.Errorf("striping = %+v", got)
		}
		h2, err := c.Open(p, "f", false, Striping{})
		if err != nil || h2.Meta() != h.Meta() {
			t.Error("reopen must see the same file")
		}
		h.Close(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTripAcrossStripes(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 4)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, err := c.Open(p, "f", true, Striping{StripeSize: 4096, StripeCount: 4})
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 20000) // crosses several stripes
		for i := range data {
			data[i] = byte(i % 251)
		}
		h.WriteAt(p, store.Bytes(data, 1000), 1000, int64(len(data)))
		buf := make([]byte, len(data))
		h.ReadAt(p, store.Bytes(buf, 1000), 1000, int64(len(buf)))
		if !bytes.Equal(buf, data) {
			t.Error("round trip mismatch")
		}
		if h.Meta().Size() != 21000 {
			t.Errorf("size = %d", h.Meta().Size())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStripingUsesMultipleTargetsInParallel(t *testing.T) {
	run := func(stripeCount int) sim.Time {
		k := sim.NewKernel(1)
		s, f := testSystem(k, 4)
		c := s.NewClient(f.Node(0))
		var end sim.Time
		k.Spawn("client", func(p *sim.Proc) {
			h, _ := c.Open(p, "f", true, Striping{StripeSize: 1 << 20, StripeCount: stripeCount})
			h.WriteAt(p, nil, 0, 64<<20)
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	wide, narrow := run(4), run(1)
	if wide >= narrow {
		t.Fatalf("stripe-count 4 (%v) must beat stripe-count 1 (%v)", wide, narrow)
	}
}

// plannedRPC is one RPC of a transfer: the stream that issues it, the
// target it goes to and the bytes it moves.
type plannedRPC struct {
	stream, target int
	ext            extent.Extent
}

// plan collects the RPCs an op issues for [off, off+size), stream by
// stream, each stream's in its issue order.
func plan(h *Handle, off, size int64) []plannedRPC {
	var out []plannedRPC
	for i := range h.streams(off, size) {
		cur := h.cursor(i, off, size)
		for ext, ok := cur.next(); ok; ext, ok = cur.next() {
			out = append(out, plannedRPC{stream: i, target: cur.tgt, ext: ext})
		}
	}
	return out
}

func TestRPCPlanRespectsStripeAndMaxRPC(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 4)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{StripeSize: 1 << 21, StripeCount: 4})
		rpcs := plan(h, 100, 5<<20)
		var total int64
		for i, r := range rpcs {
			if r.ext.Len > s.cfg.MaxRPC {
				t.Errorf("rpc %d exceeds MaxRPC: %d", i, r.ext.Len)
			}
			first := r.ext.Off / (1 << 21)
			last := (r.ext.End() - 1) / (1 << 21)
			if first != last {
				t.Errorf("rpc %d crosses a stripe boundary: %v", i, r.ext)
			}
			if want := h.targetFor(r.ext.Off); r.target != want {
				t.Errorf("rpc %d routed to %d, want %d", i, r.target, want)
			}
			total += r.ext.Len
		}
		if total != 5<<20 {
			t.Errorf("rpcs cover %d bytes, want %d", total, 5<<20)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCoversRangeProperty(t *testing.T) {
	k := sim.NewKernel(1)
	s, fb := testSystem(k, 3)
	c := s.NewClient(fb.Node(0))
	var h *Handle
	k.Spawn("setup", func(p *sim.Proc) {
		h, _ = c.Open(p, "f", true, Striping{StripeSize: 4096, StripeCount: 3})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, size uint16) bool {
		if size == 0 {
			return len(plan(h, int64(off), 0)) == 0
		}
		// Streams run side by side; in offset order their RPCs must tile
		// the range exactly.
		rpcs := plan(h, int64(off), int64(size))
		slices.SortFunc(rpcs, func(a, b plannedRPC) int { return cmp.Compare(a.ext.Off, b.ext.Off) })
		cur := int64(off)
		for _, r := range rpcs {
			if r.ext.Off != cur {
				return false
			}
			cur = r.ext.End()
		}
		return cur == int64(off)+int64(size)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referencePlan is the RPC planner the stripe walk replaced: split the
// range stripe by stripe into RPCs of at most MaxRPC bytes, then group
// them by target, targets in order of first appearance.
func referencePlan(h *Handle, off, size int64) []plannedRPC {
	type rpc struct {
		target int
		ext    extent.Extent
	}
	var rpcs []rpc
	st := h.meta.striping
	cur, end := off, off+size
	for cur < end {
		chunkEnd := min(end, (cur/st.StripeSize+1)*st.StripeSize)
		tgt := h.targetFor(cur)
		for cur < chunkEnd {
			n := min(h.client.sys.cfg.MaxRPC, chunkEnd-cur)
			rpcs = append(rpcs, rpc{target: tgt, ext: extent.Extent{Off: cur, Len: n}})
			cur += n
		}
	}
	byTarget := make(map[int][]rpc)
	var order []int
	for _, r := range rpcs {
		if _, ok := byTarget[r.target]; !ok {
			order = append(order, r.target)
		}
		byTarget[r.target] = append(byTarget[r.target], r)
	}
	var out []plannedRPC
	for i, tgt := range order {
		for _, r := range byTarget[tgt] {
			out = append(out, plannedRPC{stream: i, target: r.target, ext: r.ext})
		}
	}
	return out
}

// TestStripeWalkMatchesReferencePlan checks the per-stream stripe walk
// against the reference planner over many stripings, RPC sizes and ranges:
// the same streams, in the same order, issuing the same RPCs.
func TestStripeWalkMatchesReferencePlan(t *testing.T) {
	k := sim.NewKernel(1)
	s, fb := testSystem(k, 5)
	c := s.NewClient(fb.Node(0))
	var handles []*Handle
	k.Spawn("setup", func(p *sim.Proc) {
		for i, st := range []Striping{
			{StripeSize: 4096, StripeCount: 1},
			{StripeSize: 4096, StripeCount: 3},
			{StripeSize: 4096, StripeCount: 5},
			{StripeSize: 1000, StripeCount: 4},
			{StripeSize: 1 << 16, StripeCount: 2},
		} {
			h, err := c.Open(p, fmt.Sprintf("f%d", i), true, st)
			if err != nil {
				t.Error(err)
				return
			}
			handles = append(handles, h)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for _, maxRPC := range []int64{1 << 20, 4096, 1500, 333} {
		s.cfg.MaxRPC = maxRPC
		for _, h := range handles {
			for range 200 {
				off := rng.Int63n(1 << 18)
				size := 1 + rng.Int63n(1<<17)
				got, want := plan(h, off, size), referencePlan(h, off, size)
				if !slices.Equal(got, want) {
					t.Fatalf("striping %+v, MaxRPC %d, [%d,+%d):\n got %v\nwant %v",
						h.meta.striping, maxRPC, off, size, got, want)
				}
			}
		}
	}
}

func TestUnlink(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 2)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{})
		h.Close(p)
		if err := c.Unlink(p, "f"); err != nil {
			t.Error(err)
		}
		if s.Lookup("f") != nil {
			t.Error("file still present after unlink")
		}
		if err := c.Unlink(p, "f"); !errors.Is(err, ErrNotFound) {
			t.Errorf("want ErrNotFound, got %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClientsShareTargets(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 1)
	var ends []sim.Time
	for i := 0; i < 2; i++ {
		c := s.NewClient(f.Node(i))
		i := i
		k.Spawn("client", func(p *sim.Proc) {
			h, _ := c.Open(p, "f", true, Striping{StripeSize: 1 << 20, StripeCount: 1})
			h.WriteAt(p, nil, int64(i)*(8<<20), 8<<20)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 16 MB through a single 100 MB/s target: at least ~160 ms total.
	last := ends[len(ends)-1]
	if last < sim.FromSeconds(0.16) {
		t.Fatalf("single shared target finished too fast: %v", last)
	}
}

func TestLockGranularitySerializesOverlappingWrites(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.TargetJitter = nil
	cfg.LockGranularity = 4 << 20
	f := netsim.New(k, netsim.Config{Nodes: 2, InjRate: 10 * sim.GBps, EjeRate: 10 * sim.GBps, Latency: sim.Microsecond, MemRate: 10 * sim.GBps})
	s := New(k, cfg, store.NewNull)
	waitsBefore := s.Locks.Waits
	for i := 0; i < 2; i++ {
		c := s.NewClient(f.Node(i))
		i := i
		k.Spawn("client", func(p *sim.Proc) {
			h, _ := c.Open(p, "f", true, Striping{})
			// Both writes land in the same 4 MB lock block.
			h.WriteAt(p, nil, int64(i)*(1<<20), 1<<20)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Locks.Waits == waitsBefore {
		t.Fatal("overlapping block-locked writes must contend")
	}
}

func TestLockManagerFIFOAndSharing(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewLockManager(k)
	var order []string
	e := extent.Extent{Off: 0, Len: 100}
	k.Spawn("w1", func(p *sim.Proc) {
		l := m.Acquire(p, "f", WriteLock, e)
		p.Sleep(sim.Second)
		order = append(order, "w1")
		m.Unlock(l)
	})
	k.Spawn("r1", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		l := m.Acquire(p, "f", ReadLock, e)
		order = append(order, "r1")
		p.Sleep(sim.Second)
		m.Unlock(l)
	})
	k.Spawn("r2", func(p *sim.Proc) {
		p.Sleep(2 * sim.Millisecond)
		l := m.Acquire(p, "f", ReadLock, e)
		order = append(order, "r2")
		p.Sleep(sim.Second)
		m.Unlock(l)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "w1" {
		t.Fatalf("order = %v", order)
	}
	// Both readers must have been granted concurrently (same wake time):
	// total time ~2s, not ~3s.
	if k.Now() > sim.FromSeconds(2.5) {
		t.Fatalf("readers did not share: finished at %v", k.Now())
	}
}

func TestDisjointWriteLocksDoNotBlock(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewLockManager(k)
	k.Spawn("a", func(p *sim.Proc) {
		l := m.Acquire(p, "f", WriteLock, extent.Extent{Off: 0, Len: 10})
		p.Sleep(sim.Second)
		m.Unlock(l)
	})
	k.Spawn("b", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		l := m.Acquire(p, "f", WriteLock, extent.Extent{Off: 100, Len: 10})
		m.Unlock(l)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Waits != 0 {
		t.Fatalf("disjoint locks must not wait (waits=%d)", m.Waits)
	}
}

func TestTargetJitterVariesServiceTimes(t *testing.T) {
	k := sim.NewKernel(7)
	cfg := DefaultConfig()
	f := netsim.New(k, netsim.Config{Nodes: 8, InjRate: 10 * sim.GBps, EjeRate: 10 * sim.GBps, Latency: sim.Microsecond, MemRate: 10 * sim.GBps})
	s := New(k, cfg, store.NewNull)
	var ends []sim.Time
	for i := 0; i < 8; i++ {
		c := s.NewClient(f.Node(i))
		i := i
		k.Spawn("client", func(p *sim.Proc) {
			h, _ := c.Open(p, "shared", true, Striping{})
			h.WriteAt(p, nil, int64(i)*(16<<20), 16<<20)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	minT, maxT := ends[0], ends[0]
	for _, e := range ends {
		if e < minT {
			minT = e
		}
		if e > maxT {
			maxT = e
		}
	}
	if maxT == minT {
		t.Fatal("jitter should spread completion times")
	}
}

func TestTruncate(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 2)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{})
		h.WriteAt(p, store.Bytes([]byte("abcdef"), 0), 0, 6)
		h.Truncate(p, 3)
		if h.Meta().Size() != 3 {
			t.Errorf("size = %d", h.Meta().Size())
		}
		buf := make([]byte, 6)
		h.ReadAt(p, store.Bytes(buf, 0), 0, int64(len(buf)))
		if buf[2] != 'c' || buf[3] != 0 {
			t.Errorf("truncated content = %v", buf)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationAccessors(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 2)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{StripeSize: 1 << 20, StripeCount: 2})
		h.WriteAt(p, nil, 0, 8<<20)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	util := s.TargetUtilization(k.Now())
	bytes := s.TargetBytes()
	if len(util) != 2 || len(bytes) != 2 {
		t.Fatal("accessor lengths wrong")
	}
	if bytes[0]+bytes[1] != 8<<20 {
		t.Fatalf("target bytes = %v", bytes)
	}
	if util[0] <= 0 || util[0] > 1 {
		t.Fatalf("utilization = %v", util)
	}
	if s.MetaOps() == 0 {
		t.Fatal("metadata ops not counted")
	}
}

func TestTargetDownFailsWrites(t *testing.T) {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 4)
	c := s.NewClient(f.Node(0))
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{StripeSize: 4096, StripeCount: 4})
		s.SetTargetDown(1, true)
		// Stripe 1 lands on the downed target.
		err := h.WriteAt(p, nil, 4096, 4096)
		if !errors.Is(err, ErrTargetDown) {
			t.Errorf("want ErrTargetDown, got %v", err)
		}
		// Other targets stay up.
		if err := h.WriteAt(p, nil, 0, 4096); err != nil {
			t.Errorf("healthy target write failed: %v", err)
		}
		// Over several targets, the first failing stream in stripe order
		// names the error, and nothing is committed.
		s.SetTargetDown(3, true)
		want := "pfs: storage target unreachable: tgt1"
		if err := h.WriteAt(p, nil, 0, 4*4096); err == nil || err.Error() != want {
			t.Errorf("write over down targets 1 and 3: got %v, want %q", err, want)
		}
		if got := h.Meta().Size(); got != 4096 {
			t.Errorf("failed write changed the size to %d", got)
		}
		s.SetTargetDown(3, false)
		s.SetTargetDown(1, false)
		if err := h.WriteAt(p, nil, 4096, 4096); err != nil {
			t.Errorf("write after target restore: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedTargetStretchesService(t *testing.T) {
	run := func(factor float64) sim.Time {
		k := sim.NewKernel(1)
		s, f := testSystem(k, 1)
		c := s.NewClient(f.Node(0))
		if factor != 1 {
			s.SetTargetSpeed(0, factor)
		}
		var end sim.Time
		k.Spawn("client", func(p *sim.Proc) {
			h, _ := c.Open(p, "f", true, Striping{StripeSize: 1 << 20, StripeCount: 1})
			if err := h.WriteAt(p, nil, 0, 16<<20); err != nil {
				t.Error(err)
			}
			end = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	healthy, degraded := run(1), run(0.25)
	// A quarter-speed target must take roughly four times as long.
	if degraded < 3*healthy {
		t.Fatalf("degraded target too fast: healthy %v, degraded %v", healthy, degraded)
	}
}
