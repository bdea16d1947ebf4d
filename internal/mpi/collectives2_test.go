package mpi

import (
	"testing"
)

func TestReduceBothModels(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		for root := 0; root < 3; root++ {
			w := testWorld(t, 3, 1)
			c := w.Comm()
			c.SetCollModel(model)
			results := make([][]int64, w.Size())
			err := w.Run(func(r *Rank) {
				results[r.ID()] = c.Reduce(r, root, []int64{int64(r.ID() + 1), 10}, SumOp)
			})
			if err != nil {
				t.Fatal(err)
			}
			for rank, res := range results {
				if rank == root {
					if res == nil || res[0] != 6 || res[1] != 30 {
						t.Fatalf("model %v root %d: reduce = %v", model, root, res)
					}
				} else if res != nil {
					t.Fatalf("model %v: non-root rank %d got %v", model, rank, res)
				}
			}
		}
	}
}

func TestGatherBothModels(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 2, 2)
		c := w.Comm()
		c.SetCollModel(model)
		var got [][]int64
		err := w.Run(func(r *Rank) {
			res := c.Gather(r, 1, []int64{int64(r.ID() * 2)})
			if c.RankOf(r) == 1 {
				got = res
			} else if res != nil {
				t.Errorf("non-root got %v", res)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v[0] != int64(i*2) {
				t.Fatalf("model %v: gather[%d] = %v", model, i, v)
			}
		}
	}
}

func TestScatterBothModels(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 4, 1)
		c := w.Comm()
		c.SetCollModel(model)
		results := make([][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			var parts [][]int64
			if c.RankOf(r) == 0 {
				parts = [][]int64{{0}, {10, 11}, {20}, {30, 31, 32}}
			}
			results[r.ID()] = c.Scatter(r, 0, parts)
		})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int64{{0}, {10, 11}, {20}, {30, 31, 32}}
		for i, res := range results {
			if len(res) != len(want[i]) {
				t.Fatalf("model %v: scatter[%d] = %v, want %v", model, i, res, want[i])
			}
			for j := range res {
				if res[j] != want[i][j] {
					t.Fatalf("model %v: scatter[%d] = %v, want %v", model, i, res, want[i])
				}
			}
		}
	}
}

func TestScanBothModels(t *testing.T) {
	for _, model := range []CollModel{Analytic, MessagePassing} {
		w := testWorld(t, 4, 1)
		c := w.Comm()
		c.SetCollModel(model)
		results := make([][]int64, w.Size())
		err := w.Run(func(r *Rank) {
			results[r.ID()] = c.Scan(r, []int64{int64(r.ID() + 1)}, SumOp)
		})
		if err != nil {
			t.Fatal(err)
		}
		// Inclusive prefix sums of 1,2,3,4.
		want := []int64{1, 3, 6, 10}
		for i, res := range results {
			if res[0] != want[i] {
				t.Fatalf("model %v: scan[%d] = %d, want %d", model, i, res[0], want[i])
			}
		}
	}
}

func TestSendrecvNoDeadlock(t *testing.T) {
	// Ring exchange with blocking Send/Recv would deadlock; Sendrecv must
	// not.
	w := testWorld(t, 4, 1)
	got := make([]int64, w.Size())
	err := w.Run(func(r *Rank) {
		p := w.Size()
		right := (r.ID() + 1) % p
		left := (r.ID() - 1 + p) % p
		m := r.Sendrecv(right, 5, Message{Vals: []int64{int64(r.ID())}}, left, 5)
		got[r.ID()] = m.Vals[0]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := int64((i - 1 + w.Size()) % w.Size()); v != want {
			t.Fatalf("ring recv[%d] = %d, want %d", i, v, want)
		}
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
