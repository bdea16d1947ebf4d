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

// pairsOf returns the sparse Alltoall list of vec's non-zero entries.
func pairsOf(vec []int64) []int64 {
	var out []int64
	for i, v := range vec {
		if v != 0 {
			out = append(out, int64(i), v)
		}
	}
	return out
}

// denseOf expands a received (src, count) list to an n-entry vector,
// failing unless the sources ascend.
func denseOf(t testing.TB, pairs []int64, n int) []int64 {
	t.Helper()
	out := make([]int64, n)
	for k := 0; k < len(pairs); k += 2 {
		if k > 0 && pairs[k] <= pairs[k-2] {
			t.Fatalf("alltoall result %v: sources not ascending", pairs)
		}
		out[pairs[k]] = pairs[k+1]
	}
	return out
}

func TestAlltoallValues(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 5, 1)
		c := w.Comm()
		c.SetCollModel(model)
		results := make([][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			send := make([]int64, 0, 2*c.Size())
			for i := 0; i < c.Size(); i++ {
				send = append(send, int64(i), int64(r.ID()*100+i+1))
			}
			results[r.ID()] = denseOf(t, c.Alltoall(r, send), c.Size())
		})
		if err != nil {
			t.Fatal(err)
		}
		for me, recv := range results {
			for src, v := range recv {
				if want := int64(src*100 + me + 1); v != want {
					t.Fatalf("model %v: recv[%d][%d] = %d, want %d", model, me, src, v, want)
				}
			}
		}
	}
}

// The caller may reuse its send list as soon as Alltoall returns. Under
// Analytic every rank resumes at the same virtual instant; a rank woken
// early overwrites its list before a later rank has read its own result,
// so results must be fixed when the collective completes.
func TestAlltoallSendBufferReusable(t *testing.T) {
	for _, try := range []bool{false, true} {
		w := testWorld(t, 4, 2)
		c := w.Comm()
		n := c.Size()
		results := make([][]int64, n)
		err := w.Run(func(r *Rank) {
			me := c.RankOf(r)
			var send []int64
			for i := 0; i < n; i++ {
				if (me+i)%3 != 0 { // leave some ranks receiving nothing from me
					send = append(send, int64(i), int64(me*100+i))
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
			for src, v := range denseOf(t, recv, n) {
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

// A malformed send list is a caller bug: odd length, a destination out of
// range, or destinations not strictly ascending. Alltoall panics on it
// before entering the collective.
func TestAlltoallRejectsMalformedSend(t *testing.T) {
	c := testWorld(t, 4, 1).Comm()
	for _, send := range [][]int64{{1}, {4, 1}, {-1, 1}, {2, 1, 1, 1}, {2, 1, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alltoall accepted send list %v", send)
				}
			}()
			c.Alltoall(nil, send)
		}()
	}
}

// AllgatherDerive runs derive once per completed call and hands every
// rank that one value; a timed-out call runs none; MessagePassing derives
// per rank and agrees.
func TestAllgatherDerive(t *testing.T) {
	type summary struct{ sum, max int64 }
	derive := func(calls *int) func([][]int64) *summary {
		return func(table [][]int64) *summary {
			*calls++
			s := &summary{}
			for _, row := range table {
				s.sum += row[0]
				s.max = max(s.max, row[1])
			}
			return s
		}
	}
	const rounds = 3
	got := map[CollModel][][]*summary{}
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 4, 2)
		c := w.Comm()
		c.SetCollModel(model)
		calls := 0
		out := make([][]*summary, rounds)
		for m := range out {
			out[m] = make([]*summary, w.Size())
		}
		if err := w.Run(func(r *Rank) {
			for m := 0; m < rounds; m++ {
				v, err := AllgatherDerive(c, r, []int64{int64(r.ID() + m), int64(r.ID() * m)}, derive(&calls))
				if err != nil {
					t.Error(err)
				}
				out[m][r.ID()] = v
			}
		}); err != nil {
			t.Fatal(err)
		}
		want := rounds
		if model == MessagePassing {
			want *= w.Size()
		}
		if calls != want {
			t.Fatalf("model %v: derive ran %d times over %d calls, want %d", model, calls, rounds, want)
		}
		for m, row := range out {
			for id, v := range row {
				if v == nil || *v != (summary{sum: int64(28 + 8*m), max: int64(7 * m)}) {
					t.Fatalf("model %v call %d rank %d: derived %v", model, m, id, v)
				}
				if model == Analytic && v != row[0] {
					t.Fatalf("call %d: rank %d got its own value, not the shared one", m, id)
				}
			}
		}
		got[model] = out
	}

	w := testWorld(t, 2, 2)
	w.SetCollTimeout(10 * sim.Millisecond)
	calls := 0
	errs := make([]error, w.Size())
	if err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			w.Kill(1)
		}
		r.checkKilled()
		v, err := AllgatherDerive(w.Comm(), r, []int64{1, 1}, derive(&calls))
		if v != nil {
			t.Errorf("rank %d: timed-out call returned %v", r.ID(), v)
		}
		errs[r.ID()] = err
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2, 3} {
		var cte *CollTimeoutError
		if !errors.As(errs[id], &cte) || len(cte.Missing) != 1 || cte.Missing[0] != 1 {
			t.Fatalf("rank %d error = %v, want *CollTimeoutError naming rank 1", id, errs[id])
		}
	}
	if calls != 0 {
		t.Fatalf("derive ran %d times on a timed-out call", calls)
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
		a := c.Alltoall(r, []int64{0, 5})
		if v[0] != 9 || g[0][0] != 7 || len(a) != 2 || a[0] != 0 || a[1] != 5 {
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
// alltoall lists are dense for one call and mostly empty — the two-phase
// dissemination's shape — for Alltoall and TryAlltoall calls after it,
// then hold only a self pair, then nothing at all.
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
			vec := make([]int64, n)
			for j := range vec {
				if r.Intn(4) == 0 {
					vec[j] = r.Int63n(1000) + 1
				}
			}
			sparse[i] = pairsOf(vec)
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
				me := rk.ID()
				red[me] = c.Allreduce(rk, []int64{vals[me]}, MaxOp)
				dense := make([]int64, n)
				for i := range dense {
					dense[i] = vals[me] * int64(i+1)
				}
				a2a[me] = append(a2a[me], denseOf(t, c.Alltoall(rk, pairsOf(dense)), n)...)
				a2a[me] = append(a2a[me], denseOf(t, c.Alltoall(rk, sparse[me]), n)...)
				got, err := c.TryAlltoall(rk, sparse[me])
				if err != nil {
					t.Error(err)
				}
				a2a[me] = append(a2a[me], denseOf(t, got, n)...)
				a2a[me] = append(a2a[me], denseOf(t, c.Alltoall(rk, []int64{int64(me), vals[me] + 1000}), n)...)
				if got := c.Alltoall(rk, nil); len(got) != 0 {
					t.Errorf("model %v: empty alltoall delivered %v", model, got)
				}
			}); err != nil {
				t.Fatal(err)
			}
			return red, a2a
		}
		ra, aa := run(Analytic)
		rm, am := run(MessagePassing)
		for i := range ra {
			if ra[i][0] != rm[i][0] || len(aa[i]) != 4*n || len(am[i]) != 4*n {
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
		// The value is the fold of the ranks that arrived, as Allreduce
		// returns it: max(0, 2, 3).
		if len(res[id]) != 1 || res[id][0] != 3 {
			t.Fatalf("rank %d got result %v alongside the timeout, want the partial fold [3]", id, res[id])
		}
	}
}

func TestAnalyticAlltoallScalesWithCommSize(t *testing.T) {
	cost := func(n int) sim.Time {
		w := testWorld(t, n, 1)
		c := w.Comm()
		var end sim.Time
		if err := w.Run(func(r *Rank) {
			c.Alltoall(r, nil)
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

func TestSplitByColor(t *testing.T) {
	w := testWorld(t, 4, 2) // 8 ranks
	sums := make([]int64, w.Size())
	subs := make([]*Comm, w.Size())
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		sub := c.Split(r, r.ID()%2, r.ID())
		if sub == nil {
			t.Errorf("rank %d got nil comm", r.ID())
			return
		}
		subs[r.ID()] = sub
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		res := sub.Allreduce(r, []int64{int64(r.ID())}, SumOp)
		sums[r.ID()] = res[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		want := int64(0 + 2 + 4 + 6)
		if i%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if s != want {
			t.Fatalf("sum[%d] = %d, want %d", i, s, want)
		}
		// Every member of a color must hold the one shared communicator.
		if subs[i] != subs[i%2] {
			t.Fatalf("rank %d got a different communicator than rank %d", i, i%2)
		}
	}
	if subs[0] == subs[1] {
		t.Fatal("colors 0 and 1 share a communicator")
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w := testWorld(t, 2, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		color := 0
		if r.ID() == 1 {
			color = -1 // MPI_UNDEFINED
		}
		sub := c.Split(r, color, 0)
		if r.ID() == 1 && sub != nil {
			t.Error("undefined color must yield nil")
		}
		if r.ID() == 0 && (sub == nil || sub.Size() != 1) {
			t.Errorf("rank 0 comm wrong: %v", sub)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOrdersByKey(t *testing.T) {
	w := testWorld(t, 3, 1)
	err := w.Run(func(r *Rank) {
		c := w.Comm()
		// Reverse key order: rank 2 gets key 0, rank 0 key 2.
		sub := c.Split(r, 0, 2-r.ID())
		if got := sub.RankOf(r); got != 2-r.ID() {
			t.Errorf("rank %d: sub rank = %d, want %d", r.ID(), got, 2-r.ID())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
