package mpi

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkAlltoallSparse runs the analytic Alltoall in the two-phase
// dissemination's shape: 512 ranks, each sending a non-zero count to 64
// aggregators only, 32 rounds per run, one send list reused across
// rounds. Every received pair is checked.
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
			send := make([]int64, 0, 2*n/aggStride)
			for m := 0; m < rounds; m++ {
				send = send[:0]
				for a := 0; a < n; a += aggStride {
					send = append(send, int64(a), int64(me+m+1))
				}
				recv := c.Alltoall(r, send)
				want := 0
				if me%aggStride == 0 {
					want = n
				}
				if len(recv) != 2*want {
					bad++
					continue
				}
				for k := 0; k < len(recv); k += 2 {
					if src := recv[k]; src != int64(k/2) || recv[k+1] != src+int64(m+1) {
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

// benchWorld builds an idle world of nodes x perNode ranks for the
// microbenchmarks.
func benchWorld(nodes, perNode int) *World {
	k := sim.NewKernel(1)
	return NewWorld(k, netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: sim.GBps, EjeRate: sim.GBps,
		Latency: 10 * sim.Microsecond, MemRate: 10 * sim.GBps,
	}), perNode)
}

// BenchmarkSurvivorComm measures the failover path's per-rank survivor
// lookup at 4096 ranks with one node dead: after the first caller derives
// the communicator, every later caller must get the same one with no
// allocation.
func BenchmarkSurvivorComm(b *testing.B) {
	w := benchWorld(512, 8)
	w.KillNode(3)
	parent := w.Comm()
	const scope = "e10res|bench|c0|e1"
	first := parent.Survivors(scope)
	if first.Size() != w.Size()-8 {
		b.Fatalf("survivor comm has %d members, want %d", first.Size(), w.Size()-8)
	}
	if a := testing.AllocsPerRun(100, func() { parent.Survivors(scope) }); a != 0 {
		b.Fatalf("cached Survivors allocates %.0f times per call, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if parent.Survivors(scope) != first {
			b.Fatal("cached Survivors returned a different communicator")
		}
	}
}

// BenchmarkAllreduceFold runs the analytic Allreduce at 4096 ranks, 8
// calls per run, and checks every rank's result against the directly
// computed sum.
func BenchmarkAllreduceFold(b *testing.B) {
	const calls = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := benchWorld(512, 8)
		c := w.Comm()
		n := int64(c.Size())
		bad := 0
		b.StartTimer()
		err := w.Run(func(r *Rank) {
			for m := int64(0); m < calls; m++ {
				res := c.Allreduce(r, []int64{int64(r.ID()) + m, 1}, SumOp)
				if res[0] != n*(n-1)/2+n*m || res[1] != n {
					bad++
				}
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if bad != 0 {
			b.Fatalf("%d allreduce results differ from the direct sum", bad)
		}
	}
}
