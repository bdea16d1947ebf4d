package mpi

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkAlltoallSparse runs the analytic Alltoall in the two-phase
// dissemination's shape: 512 ranks, each sending a non-zero count to 64
// aggregators only, 32 rounds per run, one send vector reused across
// rounds. Every received value is checked.
func BenchmarkAlltoallSparse(b *testing.B) {
	const nodes, perNode, aggStride, rounds = 64, 8, 8, 32
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(1)
		w := NewWorld(k, netsim.New(k, netsim.Config{
			Nodes: nodes, InjRate: sim.GBps, EjeRate: sim.GBps,
			Latency: 10 * sim.Microsecond, MemRate: 10 * sim.GBps,
		}), perNode)
		c := w.Comm()
		n := c.Size()
		bad := 0
		b.StartTimer()
		err := w.Run(func(r *Rank) {
			me := c.RankOf(r)
			send := make([]int64, n)
			for m := 0; m < rounds; m++ {
				for a := 0; a < n; a += aggStride {
					send[a] = int64(me + m + 1)
				}
				recv := c.Alltoall(r, send)
				for src, v := range recv {
					want := int64(0)
					if me%aggStride == 0 {
						want = int64(src + m + 1)
					}
					if v != want {
						bad++
					}
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if bad != 0 {
			b.Fatalf("%d received values differ from what was sent", bad)
		}
	}
}
