package pfs

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// runWrites runs n metadata-only writes of one client process, each over
// streams consecutive 1 MB stripes: one RPC to each of streams targets.
func runWrites(n, streams int) error {
	k := sim.NewKernel(1)
	s, f := testSystem(k, 4)
	c := s.NewClient(f.Node(0))
	var err error
	k.Spawn("client", func(p *sim.Proc) {
		h, _ := c.Open(p, "f", true, Striping{})
		size := int64(streams) << 20
		for i := 0; i < n && err == nil; i++ {
			err = h.WriteAt(p, nil, int64(i)*size, size)
		}
	})
	return errors.Join(k.Run(), err)
}

// writeAllocs is the allocations one write of runWrites costs, measured as
// the difference between runs of 2000 and 1000 writes so the per-system
// setup cancels out.
func writeAllocs(streams int) (float64, error) {
	const n = 1000
	mallocs := func(f func() error) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, err
	}
	small, err1 := mallocs(func() error { return runWrites(n, streams) })
	large, err2 := mallocs(func() error { return runWrites(2*n, streams) })
	return float64(int64(large)-int64(small)) / n, errors.Join(err1, err2)
}

// BenchmarkPFSWrite runs b.N writes of one stream and of four. It first
// fails if a write costs more allocations than its bound: none for one
// stream, which runs on the calling process; 16 for four: the op's join
// record and its streams, a Proc, a step function and a lazy name for each
// stream's process, and two regrowths of the client cap's wait queue, which
// three of the four streams join at once. The 0.1 allowance absorbs
// amortized growth (the event queue, the live-process map).
func BenchmarkPFSWrite(b *testing.B) {
	for _, tc := range []struct {
		streams int
		bound   float64
	}{{1, 0}, {4, 16}} {
		b.Run(fmt.Sprintf("streams=%d", tc.streams), func(b *testing.B) {
			b.ReportAllocs()
			per, err := writeAllocs(tc.streams)
			if err != nil {
				b.Fatal(err)
			}
			if per > tc.bound+0.1 {
				b.Fatalf("%.3f allocations per %d-stream write, want <= %v", per, tc.streams, tc.bound)
			}
			b.ResetTimer()
			if err := runWrites(b.N, tc.streams); err != nil {
				b.Fatal(err)
			}
		})
	}
}
