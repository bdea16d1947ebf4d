package mpi

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// runCollective executes body on a fresh world with the given collective
// model and returns per-rank outputs.
func runCollective(t *testing.T, nodes, perNode int, model CollModel,
	body func(c *Comm, r *Rank) []int64) [][]int64 {
	t.Helper()
	w := testWorld(t, nodes, perNode)
	c := w.Comm()
	c.SetCollModel(model)
	out := make([][]int64, w.Size())
	if err := w.Run(func(r *Rank) {
		out[r.ID()] = body(c, r)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBarrierSynchronisesBothModels(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 4, 2)
		c := w.Comm()
		c.SetCollModel(model)
		var after []sim.Time
		err := w.Run(func(r *Rank) {
			r.Compute(sim.Time(r.ID()) * sim.Millisecond) // skewed arrivals
			c.Barrier(r)
			after = append(after, r.Now())
		})
		if err != nil {
			t.Fatal(err)
		}
		maxArrival := sim.Time(7) * sim.Millisecond
		for _, a := range after {
			if a < maxArrival {
				t.Fatalf("model %v: rank left barrier at %v before slowest arrival %v", model, a, maxArrival)
			}
		}
	}
}

func TestAllreduceValues(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		out := runCollective(t, 3, 2, model, func(c *Comm, r *Rank) []int64 {
			return c.Allreduce(r, []int64{int64(r.ID()), int64(-r.ID()), 1}, MaxOp)
		})
		for rank, v := range out {
			if v[0] != 5 || v[1] != 0 || v[2] != 1 {
				t.Fatalf("model %v rank %d: allreduce = %v", model, rank, v)
			}
		}
	}
}

func TestAllreduceSumAndMin(t *testing.T) {
	out := runCollective(t, 2, 2, MessagePassing, func(c *Comm, r *Rank) []int64 {
		s := c.Allreduce(r, []int64{int64(r.ID() + 1)}, SumOp)
		m := c.Allreduce(r, []int64{int64(r.ID() + 1)}, MinOp)
		return []int64{s[0], m[0]}
	})
	for rank, v := range out {
		if v[0] != 10 || v[1] != 1 {
			t.Fatalf("rank %d: sum=%d min=%d", rank, v[0], v[1])
		}
	}
}

func TestAllgatherValues(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 2, 2)
		c := w.Comm()
		c.SetCollModel(model)
		results := make([][][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			results[r.ID()] = c.Allgather(r, []int64{int64(r.ID() * 10), int64(r.ID())})
		})
		if err != nil {
			t.Fatal(err)
		}
		for rank, res := range results {
			for i, v := range res {
				if v[0] != int64(i*10) || v[1] != int64(i) {
					t.Fatalf("model %v rank %d: allgather[%d] = %v", model, rank, i, v)
				}
			}
		}
	}
}

func TestAlltoallValues(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 5, 1)
		c := w.Comm()
		c.SetCollModel(model)
		results := make([][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			send := make([]int64, c.Size())
			for i := range send {
				send[i] = int64(r.ID()*100 + i)
			}
			results[r.ID()] = c.Alltoall(r, send)
		})
		if err != nil {
			t.Fatal(err)
		}
		for me, recv := range results {
			for src, v := range recv {
				if want := int64(src*100 + me); v != want {
					t.Fatalf("model %v: recv[%d][%d] = %d, want %d", model, me, src, v, want)
				}
			}
		}
	}
}

// The caller may reuse its send vector as soon as Alltoall returns. Under
// Analytic every rank resumes at the same virtual instant; a rank woken
// early overwrites its vector before a later rank has read its own result,
// so results must be fixed when the collective completes.
func TestAlltoallSendBufferReusable(t *testing.T) {
	for _, try := range []bool{false, true} {
		w := testWorld(t, 4, 2)
		c := w.Comm()
		n := c.Size()
		results := make([][]int64, n)
		err := w.Run(func(r *Rank) {
			me := c.RankOf(r)
			send := make([]int64, n)
			for i := range send {
				if (me+i)%3 != 0 { // leave some zeros for the shared row
					send[i] = int64(me*100 + i)
				}
			}
			var recv []int64
			if try {
				var err error
				if recv, err = c.TryAlltoall(r, send); err != nil {
					t.Error(err)
				}
			} else {
				recv = c.Alltoall(r, send)
			}
			for i := range send {
				send[i] = -1
			}
			results[me] = recv
		})
		if err != nil {
			t.Fatal(err)
		}
		for me, recv := range results {
			for src, v := range recv {
				want := int64(src*100 + me)
				if (src+me)%3 == 0 {
					want = 0
				}
				if v != want {
					t.Fatalf("try=%v: recv[%d][%d] = %d, want %d", try, me, src, v, want)
				}
			}
		}
	}
}

func TestBcastValues(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		for root := 0; root < 3; root++ {
			out := runCollective(t, 3, 1, model, func(c *Comm, r *Rank) []int64 {
				var vals []int64
				if c.RankOf(r) == root {
					vals = []int64{42, 43}
				}
				return c.Bcast(r, root, vals)
			})
			for rank, v := range out {
				if len(v) != 2 || v[0] != 42 || v[1] != 43 {
					t.Fatalf("model %v root %d rank %d: bcast = %v", model, root, rank, v)
				}
			}
		}
	}
}

func TestSubCommunicator(t *testing.T) {
	w := testWorld(t, 4, 1)
	sub := w.NewComm([]int{1, 3}) // aggregator-style subset
	results := make(map[int]int64)
	err := w.Run(func(r *Rank) {
		if sub.RankOf(r) < 0 {
			return
		}
		v := sub.Allreduce(r, []int64{int64(r.ID())}, SumOp)
		results[r.ID()] = v[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1] != 4 || results[3] != 4 {
		t.Fatalf("sub-comm allreduce = %v", results)
	}
}

func TestSingleRankCollectivesAreFree(t *testing.T) {
	w := testWorld(t, 1, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		c.Barrier(r)
		v := c.Allreduce(r, []int64{9}, MaxOp)
		g := c.Allgather(r, []int64{7})
		a := c.Alltoall(r, []int64{5})
		if v[0] != 9 || g[0][0] != 7 || a[0] != 5 {
			t.Error("single-rank collectives wrong")
		}
		if r.Now() != 0 {
			t.Errorf("single-rank collectives must cost nothing, took %v", r.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedCollectivesPanic(t *testing.T) {
	w := testWorld(t, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched collectives")
		}
	}()
	_ = w.Run(func(r *Rank) {
		c := w.Comm()
		if r.ID() == 0 {
			c.Barrier(r)
		} else {
			c.Allreduce(r, []int64{1}, MaxOp)
		}
	})
}

// Property: analytic and message-passing modes produce identical data
// results for random inputs (timings differ, semantics must not). The
// alltoall vectors are dense for one call and mostly zero — the two-phase
// dissemination's shape — for Alltoall and TryAlltoall calls after it.
func TestCollectiveModelsAgree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(6) + 2 // 2..7 ranks
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = r.Int63n(1000) - 500
		}
		sparse := make([][]int64, n)
		for i := range sparse {
			sparse[i] = make([]int64, n)
			for j := range sparse[i] {
				if r.Intn(4) == 0 {
					sparse[i][j] = r.Int63n(1000) + 1
				}
			}
		}
		run := func(model CollModel) ([][]int64, [][]int64) {
			k := sim.NewKernel(seed)
			f := netsim.New(k, netsim.Config{Nodes: n, InjRate: sim.GBps, EjeRate: sim.GBps, Latency: sim.Microsecond, MemRate: 10 * sim.GBps})
			w := NewWorld(k, f, 1)
			c := w.Comm()
			c.SetCollModel(model)
			red := make([][]int64, n)
			a2a := make([][]int64, n)
			if err := w.Run(func(rk *Rank) {
				red[rk.ID()] = c.Allreduce(rk, []int64{vals[rk.ID()]}, MaxOp)
				send := make([]int64, n)
				for i := range send {
					send[i] = vals[rk.ID()] * int64(i+1)
				}
				a2a[rk.ID()] = append([]int64(nil), c.Alltoall(rk, send)...)
				a2a[rk.ID()] = append(a2a[rk.ID()], c.Alltoall(rk, sparse[rk.ID()])...)
				got, err := c.TryAlltoall(rk, sparse[rk.ID()])
				if err != nil {
					t.Error(err)
				}
				a2a[rk.ID()] = append(a2a[rk.ID()], got...)
			}); err != nil {
				t.Fatal(err)
			}
			return red, a2a
		}
		ra, aa := run(Analytic)
		rm, am := run(MessagePassing)
		for i := range ra {
			if ra[i][0] != rm[i][0] {
				return false
			}
			for j := range aa[i] {
				if aa[i][j] != am[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}

	// Allreduce and TryAllreduce at 64 ranks with both operators: the
	// analytic result, folded once per call, must match the message-passing
	// one and the directly computed reduction on every rank.
	vals := func(id int) []int64 { return []int64{int64(id*7 - 200), int64(-id), int64(id % 5)} }
	allreduce := func(model CollModel) [][]int64 {
		return runCollective(t, 8, 8, model, func(c *Comm, r *Rank) []int64 {
			var out []int64
			for _, op := range []Op{MaxOp, SumOp} {
				out = append(out, c.Allreduce(r, vals(r.ID()), op)...)
				got, err := c.TryAllreduce(r, vals(r.ID()), op)
				if err != nil {
					t.Error(err)
				}
				out = append(out, got...)
			}
			return out
		})
	}
	var want []int64
	for _, op := range []Op{MaxOp, SumOp} {
		acc := vals(0)
		for id := 1; id < 64; id++ {
			for j, v := range vals(id) {
				acc[j] = op(acc[j], v)
			}
		}
		want = append(want, acc...)
		want = append(want, acc...)
	}
	ra, rm := allreduce(Analytic), allreduce(MessagePassing)
	for id := range ra {
		for j := range want {
			if ra[id][j] != want[j] || rm[id][j] != want[j] {
				t.Fatalf("rank %d allreduce[%d]: analytic %d, message-passing %d, want %d",
					id, j, ra[id][j], rm[id][j], want[j])
			}
		}
	}
}

func TestAllreduceResultIsCallersOwn(t *testing.T) {
	// Each rank overwrites its result as soon as it returns; the ranks that
	// resume after it must still read the true reduction.
	const n = 64
	want := int64(n * (n - 1) / 2)
	out := runCollective(t, 8, 8, Analytic, func(c *Comm, r *Rank) []int64 {
		res := c.Allreduce(r, []int64{int64(r.ID())}, SumOp)
		got := res[0]
		res[0] = -1
		tres, err := c.TryAllreduce(r, []int64{int64(r.ID())}, SumOp)
		if err != nil {
			t.Error(err)
			return nil
		}
		tgot := tres[0]
		tres[0] = -1
		return []int64{got, tgot}
	})
	for id, o := range out {
		if o[0] != want || o[1] != want {
			t.Fatalf("rank %d read %v, want %d twice: another rank's write leaked", id, o, want)
		}
	}
}

func TestTryAllreduceWithDeadRank(t *testing.T) {
	w := testWorld(t, 2, 2)
	w.SetCollTimeout(10 * sim.Millisecond)
	errs := make([]error, w.Size())
	res := make([][]int64, w.Size())
	if err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			w.Kill(1)
		}
		r.checkKilled()
		res[r.ID()], errs[r.ID()] = w.Comm().TryAllreduce(r, []int64{int64(r.ID())}, MaxOp)
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2, 3} {
		var cte *CollTimeoutError
		if !errors.As(errs[id], &cte) || len(cte.Missing) != 1 || cte.Missing[0] != 1 {
			t.Fatalf("rank %d error = %v, want *CollTimeoutError naming rank 1", id, errs[id])
		}
		if res[id] != nil {
			t.Fatalf("rank %d got result %v alongside the timeout", id, res[id])
		}
	}
}

func TestAnalyticAlltoallScalesWithCommSize(t *testing.T) {
	cost := func(n int) sim.Time {
		w := testWorld(t, n, 1)
		c := w.Comm()
		var end sim.Time
		if err := w.Run(func(r *Rank) {
			send := make([]int64, n)
			c.Alltoall(r, send)
			end = r.Now()
		}); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if c4, c16 := cost(4), cost(16); c16 <= c4 {
		t.Fatalf("alltoall cost must grow with comm size: %v vs %v", c4, c16)
	}
}
