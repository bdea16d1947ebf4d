package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// testWorldSeed is testWorld with a controllable kernel seed (the lossy
// link draws from the kernel RNG).
func testWorldSeed(t *testing.T, seed int64, nodes, perNode int) *World {
	t.Helper()
	k := sim.NewKernel(seed)
	f := netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: 1 * sim.GBps, EjeRate: 1 * sim.GBps,
		Latency: 10 * sim.Microsecond, MemRate: 10 * sim.GBps,
	})
	return NewWorld(k, f, perNode)
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	// A 30% lossy link must not lose a single one of 50 messages once the
	// reliable layer is on: every drop is retransmitted until delivered.
	w := testWorldSeed(t, 3, 2, 1)
	w.EnableReliable()
	w.Kernel().Rand() // fabric built; arm loss directly
	w.fabric.Node(0).SetLossy(0.3)
	const n = 50
	var got []int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(1, 7, Message{Vals: []int64{int64(i)}})
			}
		case 1:
			for i := 0; i < n; i++ {
				m := r.Recv(0, 7)
				got = append(got, m.Vals[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("got[%d] = %d (stream reordered or lost)", i, v)
		}
	}
	if w.Retransmits() == 0 {
		t.Fatal("a 30% lossy link must force at least one retransmit")
	}
	if w.Outstanding() != 0 {
		t.Fatalf("%d messages still retained after all were acked", w.Outstanding())
	}
}

// TestReliableDedupUnderDuplication sends each message after the previous
// one was delivered, so its stream retires between messages and restarts at
// sequence 0: a duplicate must still be dropped, not taken for the next
// message.
func TestReliableDedupUnderDuplication(t *testing.T) {
	w := testWorldSeed(t, 5, 2, 1)
	w.EnableReliable()
	w.fabric.Node(0).SetDup(0.5)
	const n = 40
	recvd, strays := 0, 0
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < n; i++ {
				r.Send(1, 9, Message{Size: 64})
				r.Compute(sim.Millisecond)
			}
		case 1:
			for i := 0; i < n; i++ {
				r.Recv(0, 9)
				recvd++
			}
			r.Compute(50 * sim.Millisecond) // let stray duplicates land
			strays = len(r.mbox.unexpected)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvd != n || strays != 0 {
		t.Fatalf("received %d and %d more, want exactly %d", recvd, strays, n)
	}
	if w.DedupDrops() == 0 {
		t.Fatal("a 50% dup link must force at least one dedup")
	}
	if w.Streams() != 0 {
		t.Fatalf("%d streams hold sequence numbers after every message was delivered, want 0", w.Streams())
	}
}

func TestUnreliableDupDeliversTwice(t *testing.T) {
	// Without the reliable layer a duplicated message really arrives twice
	// — the fault is observable, which is what the chaos oracles rely on.
	w := testWorldSeed(t, 5, 2, 1)
	w.fabric.Node(0).SetDup(0.9)
	extra := 0
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < 10; i++ {
				r.Send(1, 3, Message{Size: 8})
			}
		case 1:
			for i := 0; i < 10; i++ {
				r.Recv(0, 3)
			}
			r.Compute(10 * sim.Millisecond)
			for {
				req := r.Irecv(0, 3)
				if !req.Done() {
					r.cancelRecv(req)
					break
				}
				extra++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if extra == 0 {
		t.Fatal("90% dup link with no dedup must deliver extra copies")
	}
}

func TestRetransmitGivesUpUnderPermanentPartition(t *testing.T) {
	// With the destination unreachable forever, the retransmit budget must
	// drain and the sender must release the retained message — the run ends
	// instead of looping.
	w := testWorldSeed(t, 1, 2, 1)
	w.EnableReliable()
	w.fabric.SetPartition([]int{1}, true)
	err := w.Run(func(r *Rank) {
		if r.ID() == 0 {
			req := r.Isend(1, 5, Message{Size: 128})
			r.Wait(req) // eager: completes at injection even though dst is cut off
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Outstanding() != 0 {
		t.Fatalf("%d messages retained after the retransmit budget drained", w.Outstanding())
	}
	if w.rel.giveUps != 1 {
		t.Fatalf("giveUps = %d, want 1", w.rel.giveUps)
	}
}

func TestWaitDeadlineTimesOutAndCancels(t *testing.T) {
	w := testWorld(t, 2, 1)
	var waitErr error
	var lateDelivered bool
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(20 * sim.Millisecond) // miss rank 1's deadline
			r.Send(1, 4, Message{Size: 8})
		case 1:
			req := r.Irecv(0, 4)
			_, waitErr = r.WaitDeadline(req, 5*sim.Millisecond)
			r.Compute(30 * sim.Millisecond)
			// The late message must not have completed the abandoned
			// request; it sits in the unexpected queue instead.
			lateDelivered = req.Done()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(waitErr, ErrRecvTimeout) {
		t.Fatalf("WaitDeadline error = %v, want ErrRecvTimeout", waitErr)
	}
	if lateDelivered {
		t.Fatal("late message completed a cancelled receive")
	}
}

func TestWaitDeadlineFastPathNoPerturbation(t *testing.T) {
	// When the message arrives in time, WaitDeadline must be
	// indistinguishable from Wait: same final virtual time, same event
	// count (the cancelled deadline timer leaves no footprint).
	run := func(deadline bool) (sim.Time, int64) {
		w := testWorld(t, 2, 1)
		err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 4, Message{Size: 1024})
			case 1:
				req := r.Irecv(0, 4)
				if deadline {
					if _, err := r.WaitDeadline(req, sim.Second); err != nil {
						t.Errorf("WaitDeadline: %v", err)
					}
				} else {
					r.Wait(req)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Kernel().Now(), w.Kernel().EventsDispatched()
	}
	plainNow, plainEvents := run(false)
	dlNow, dlEvents := run(true)
	if plainNow != dlNow || plainEvents != dlEvents {
		t.Fatalf("WaitDeadline fast path perturbs the run: (%v, %d) vs (%v, %d)",
			dlNow, dlEvents, plainNow, plainEvents)
	}
}

func TestCollectiveTimeoutOnDeadRank(t *testing.T) {
	// Rank 1 dies before the barrier; with a collective timeout armed the
	// survivors get a typed error naming the missing rank instead of
	// deadlocking.
	w := testWorld(t, 2, 2)
	w.SetCollTimeout(10 * sim.Millisecond)
	errs := make([]error, w.Size())
	err := w.Run(func(r *Rank) {
		if r.ID() == 1 {
			w.Kill(1)
		}
		r.checkKilled()
		errs[r.ID()] = w.Comm().TryBarrier(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2, 3} {
		e := errs[id]
		if !errors.Is(e, ErrCollTimeout) {
			t.Fatalf("rank %d barrier error = %v, want ErrCollTimeout", id, e)
		}
		var cte *CollTimeoutError
		if !errors.As(e, &cte) || len(cte.Missing) != 1 || cte.Missing[0] != 1 {
			t.Fatalf("rank %d timeout error %v must name missing rank 1", id, e)
		}
	}
}

func TestAlltoallWithDeadRank(t *testing.T) {
	// Rank 1 dies before the alltoall. TryAlltoall surfaces the typed
	// timeout; both forms return the partial result: the values the live
	// ranks sent, and nothing from the dead one.
	for _, try := range []bool{true, false} {
		w := testWorld(t, 2, 2)
		w.SetCollTimeout(10 * sim.Millisecond)
		n := w.Size()
		errs := make([]error, n)
		results := make([][]int64, n)
		err := w.Run(func(r *Rank) {
			if r.ID() == 1 {
				w.Kill(1)
			}
			r.checkKilled()
			var send []int64
			for i := 0; i < n; i++ {
				send = append(send, int64(i), int64(r.ID()*100+i+1))
			}
			if try {
				results[r.ID()], errs[r.ID()] = w.Comm().TryAlltoall(r, send)
			} else {
				results[r.ID()] = w.Comm().Alltoall(r, send)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{0, 2, 3} {
			if try {
				var cte *CollTimeoutError
				if !errors.As(errs[id], &cte) || len(cte.Missing) != 1 || cte.Missing[0] != 1 {
					t.Fatalf("rank %d: TryAlltoall error = %v, want *CollTimeoutError naming rank 1", id, errs[id])
				}
			}
			for src, v := range denseOf(t, results[id], n) {
				want := int64(src*100 + id + 1)
				if src == 1 {
					want = 0
				}
				if v != want {
					t.Fatalf("rank %d: partial alltoall recv[%d] = %d, want %d", id, src, v, want)
				}
			}
		}
	}
}

func TestCollectiveHeldAcrossPartitionHeals(t *testing.T) {
	// A barrier spanning a partition must hold (not complete) while the cut
	// is up, then complete for everyone once it heals — before the generous
	// timeout fires.
	w := testWorld(t, 2, 1)
	w.SetCollTimeout(sim.Second)
	w.fabric.SetPartition([]int{1}, true)
	w.Kernel().After(50*sim.Millisecond, func() {
		w.fabric.SetPartition(nil, false)
	})
	done := make([]sim.Time, 2)
	errs := make([]error, 2)
	err := w.Run(func(r *Rank) {
		errs[r.ID()] = w.Comm().TryBarrier(r)
		done[r.ID()] = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if errs[id] != nil {
			t.Fatalf("rank %d barrier error = %v, want nil (partition healed in time)", id, errs[id])
		}
		if done[id] < 50*sim.Millisecond {
			t.Fatalf("rank %d finished at %v, before the partition healed", id, done[id])
		}
	}
}

func TestCollectiveTimeoutUnderPermanentPartition(t *testing.T) {
	w := testWorld(t, 2, 1)
	w.SetCollTimeout(20 * sim.Millisecond)
	w.fabric.SetPartition([]int{1}, true)
	errs := make([]error, 2)
	err := w.Run(func(r *Rank) {
		_, errs[r.ID()] = w.Comm().TryAllreduce(r, []int64{int64(r.ID())}, SumOp)
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if !errors.Is(errs[id], ErrCollTimeout) {
			t.Fatalf("rank %d allreduce error = %v, want ErrCollTimeout", id, errs[id])
		}
	}
}

func TestKillUnwindsParkedRank(t *testing.T) {
	// Kill a rank parked in Recv: its process must end cleanly (no
	// deadlock) and messages to it must be discarded.
	w := testWorld(t, 2, 1)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(5 * sim.Millisecond)
			w.Kill(1)
			r.Compute(5 * sim.Millisecond)
			r.Send(1, 8, Message{Size: 16}) // discarded at delivery
		case 1:
			r.Recv(0, 8)
			t.Error("killed rank returned from Recv")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Alive(1) {
		t.Fatal("Alive(1) = true after Kill")
	}
}

func TestKillNodeKillsAllRanksOnNode(t *testing.T) {
	w := testWorld(t, 2, 2)
	w.KillNode(1)
	for id := 0; id < 4; id++ {
		want := id < 2
		if w.Alive(id) != want {
			t.Fatalf("Alive(%d) = %v, want %v", id, w.Alive(id), want)
		}
	}
}

func TestReliableNoFaultsNoPerturbation(t *testing.T) {
	// The determinism regression at the MPI layer: with the reliable layer
	// and collective timeouts armed but no faults scheduled, sequence
	// numbers, retention, acks and cancelled timers must leave virtual time
	// and the event count untouched.
	run := func(reliable bool) (sim.Time, int64) {
		w := testWorld(t, 2, 2)
		if reliable {
			w.EnableReliable()
			w.SetCollTimeout(sim.Second)
		}
		err := w.Run(func(r *Rank) {
			peer := (r.ID() + 2) % 4 // cross-node pairs
			req := r.Irecv(peer, 1)
			r.Send(peer, 1, Message{Size: 4096})
			r.Wait(req)
			w.Comm().Barrier(r)
			r.Send(peer, 2, Message{Vals: []int64{int64(r.ID())}})
			r.Recv(peer, 2)
			w.Comm().Allreduce(r, []int64{int64(r.ID())}, SumOp)
		})
		if err != nil {
			t.Fatal(err)
		}
		if reliable && w.Retransmits() != 0 {
			t.Fatalf("fault-free run retransmitted %d messages", w.Retransmits())
		}
		return w.Kernel().Now(), w.Kernel().EventsDispatched()
	}
	offNow, offEvents := run(false)
	onNow, onEvents := run(true)
	if offNow != onNow || offEvents != onEvents {
		t.Fatalf("reliable layer perturbs fault-free run: (%v, %d) vs (%v, %d)",
			onNow, onEvents, offNow, offEvents)
	}
}

func TestReliableDeterministicPerSeed(t *testing.T) {
	// Two runs of the same seed under loss must be byte-identical: same
	// final time, same retransmit count.
	run := func() (sim.Time, int64) {
		w := testWorldSeed(t, 11, 2, 1)
		w.EnableReliable()
		w.fabric.Node(0).SetLossy(0.2)
		err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				for i := 0; i < 20; i++ {
					r.Send(1, 6, Message{Size: 256})
				}
			case 1:
				for i := 0; i < 20; i++ {
					r.Recv(0, 6)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Kernel().Now(), w.Retransmits()
	}
	n1, r1 := run()
	n2, r2 := run()
	if n1 != n2 || r1 != r2 {
		t.Fatalf("seeded lossy run not reproducible: (%v, %d) vs (%v, %d)", n1, r1, n2, r2)
	}
}

func TestNewSharedCommScopesAreDistinct(t *testing.T) {
	w := testWorld(t, 4, 1)
	members := []int{0, 1}
	a := w.intern("epoch0", members)
	b := w.intern("epoch1", members)
	if a == b {
		t.Fatal("distinct scopes must yield distinct communicators")
	}
	if a != w.intern("epoch0", []int{0, 1}) {
		t.Fatal("same scope and members must intern to the same communicator")
	}
	if c := w.intern("epoch0", []int{0, 2}); c == a || !c.hasMembers([]int{0, 2}) {
		t.Fatal("different members under one scope must yield distinct communicators")
	}
	if w.intern("", members) == a {
		t.Fatal("Split's scope must not share communicators with a named scope")
	}

	// A hash collision must never merge two memberships: plant a comm over
	// {2, 3} in {0, 1}'s bucket, then intern {0, 1} there.
	key := internKey{scope: "epoch9", h: hashMembers(members)}
	planted := w.NewComm([]int{2, 3})
	w.interned[key] = append(w.interned[key], planted)
	got := w.intern("epoch9", members)
	if got == planted || !got.hasMembers(members) {
		t.Fatal("intern merged two memberships that share a bucket")
	}
	if len(w.interned[key]) != 2 || w.intern("epoch9", members) != got {
		t.Fatal("a shared bucket must hold and return both communicators")
	}
}

// TestSurvivorsMatchesFilterThenIntern checks the cached Survivors against
// the direct derivation — filter the parent through Alive, then intern —
// for every caller, with nodes dying between callers within an epoch, at
// an epoch's start, and not at all.
func TestSurvivorsMatchesFilterThenIntern(t *testing.T) {
	w := testWorld(t, 8, 8) // 64 ranks
	parent := w.Comm()
	direct := func(scope string) *Comm {
		var live []int
		for i := 0; i < parent.Size(); i++ {
			if id := parent.Member(i).ID(); w.Alive(id) {
				live = append(live, id)
			}
		}
		return w.intern(scope, live)
	}
	// kills[epoch][id] is the node that dies just before rank id calls.
	kills := []map[int]int{
		{20: 5},        // mid-epoch: ranks 0..19 see 64 members, the rest 56
		{0: 3, 40: 6},  // at the epoch's start, then mid-epoch again
		{},             // no deaths: every caller shares one comm
		{63: 7, 10: 1}, // rank 63 is on the killed node; it never calls
		{0: 2, 1: 4},   // two kills before the second caller
	}
	for epoch, killAt := range kills {
		scope := fmt.Sprintf("e%d", epoch)
		views := map[*Comm]bool{}
		for id := 0; id < w.Size(); id++ {
			if node, ok := killAt[id]; ok {
				w.KillNode(node)
			}
			if !w.Alive(id) {
				continue
			}
			got := parent.Survivors(scope)
			if want := direct(scope); got != want {
				t.Fatalf("epoch %d rank %d: Survivors = %d members, direct = %d members",
					epoch, id, got.Size(), want.Size())
			}
			if got.RankOf(w.Rank(id)) < 0 {
				t.Fatalf("epoch %d: live rank %d missing from its survivor comm", epoch, id)
			}
			views[got] = true
		}
		if want := len(killAt) + 1; len(views) > want {
			t.Fatalf("epoch %d: %d distinct survivor comms, want at most %d", epoch, len(views), want)
		}
	}
	if parent.Survivors("e2") == parent.Survivors("e4") {
		t.Fatal("distinct scopes must yield distinct survivor comms")
	}
}

// TestCommFreeReleasesSurvivorComm checks Free against both maps that
// hold a survivor communicator: it empties them, a second Free is a no-op,
// a later Survivors call over the same scope builds a fresh communicator,
// and freeing a communicator that a re-derivation has replaced leaves the
// replacement cached.
func TestCommFreeReleasesSurvivorComm(t *testing.T) {
	w := testWorld(t, 4, 4) // 16 ranks
	parent := w.Comm()
	w.KillNode(1)
	old := parent.Survivors("e0")
	old.Free()
	if len(w.interned) != 0 || len(parent.surv) != 0 {
		t.Fatalf("after Free: %d interned buckets, %d cached scopes, want 0 and 0", len(w.interned), len(parent.surv))
	}
	old.Free()
	fresh := parent.Survivors("e0")
	if fresh == old || fresh.Size() != old.Size() {
		t.Fatalf("Survivors after Free: same object %v, %d members, want a fresh comm of %d", fresh == old, fresh.Size(), old.Size())
	}
	w.KillNode(2)
	newer := parent.Survivors("e0")
	if newer == fresh {
		t.Fatal("a kill must re-derive the survivor comm")
	}
	fresh.Free()
	if parent.surv["e0"].comm != newer || len(w.interned) != 1 || parent.Survivors("e0") != newer {
		t.Fatal("freeing a replaced comm must leave its replacement interned and cached")
	}
	newer.Free()
	if len(w.interned) != 0 || len(parent.surv) != 0 {
		t.Fatalf("after the last Free: %d interned buckets, %d cached scopes, want 0 and 0", len(w.interned), len(parent.surv))
	}
}
