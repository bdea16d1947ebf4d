package mpi

import "testing"

// messageRounds is how many warm rounds messagePathAllocs measures.
const messageRounds = 100

// messagePathAllocs measures the allocations of the point-to-point message
// path per message. Rank 0 of a 2-node, 2-rank-per-node world sends one
// message per round to rank 2, on the other node, and one to rank 1, on
// its own; each receiver posts its Irecv before the message arrives and
// waits for it; rank 0 waits for both sends. testing.AllocsPerRun counts
// over rank 0's warm rounds from inside its body, so the count covers
// everything that runs meanwhile: the receivers, the kernel's dispatch and
// the step processes carrying the messages. extra, when set, builds each
// message's control values.
func messagePathAllocs(t *testing.T, reliable bool, extra func() []int64) float64 {
	t.Helper()
	w := testWorld(t, 2, 2)
	if reliable {
		w.EnableReliable()
	}
	msg := func() Message {
		m := Message{Size: 4096}
		if extra != nil {
			m.Vals = extra()
		}
		return m
	}
	var perRound float64
	reqs := make([]*Request, 2)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			perRound = testing.AllocsPerRun(messageRounds, func() {
				reqs[0] = r.Isend(2, 7, msg())
				reqs[1] = r.Isend(1, 7, msg())
				r.Waitall(reqs)
			})
		case 1, 2:
			// AllocsPerRun runs its function once more to warm up.
			for i := 0; i <= messageRounds; i++ {
				r.Wait(r.Irecv(0, 7))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return perRound / 2
}

// TestMessagePathAllocs is the message path's allocation gate: a warm
// Isend/Irecv/Wait of an inter-node and a same-node message allocates at
// most one object per message, the transfer record that holds the message,
// its send request and the process carrying it. Receive records come in
// chunks, a fraction of an allocation each.
func TestMessagePathAllocs(t *testing.T) {
	for _, reliable := range []bool{false, true} {
		got := messagePathAllocs(t, reliable, nil)
		t.Logf("reliable=%v: %.2f allocations per message", reliable, got)
		if got > 1 {
			t.Errorf("reliable=%v: %.2f allocations per message, want <= 1", reliable, got)
		}
	}
}

// TestMessagePathAllocsGateTrips is the gate's self-test: the same rounds
// with one more allocation per message, the message's own control values,
// must exceed the bound.
func TestMessagePathAllocsGateTrips(t *testing.T) {
	got := messagePathAllocs(t, false, func() []int64 { return make([]int64, 2) })
	t.Logf("%.2f allocations per message", got)
	if got <= 1 {
		t.Fatalf("%.2f allocations per message with one extra each, want the gate (<= 1) to trip", got)
	}
}
