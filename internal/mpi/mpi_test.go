package mpi

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func testWorld(t *testing.T, nodes, perNode int) *World {
	t.Helper()
	k := sim.NewKernel(1)
	f := netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: 1 * sim.GBps, EjeRate: 1 * sim.GBps,
		Latency: 10 * sim.Microsecond, MemRate: 10 * sim.GBps,
	})
	return NewWorld(k, f, perNode)
}

func TestWorldLayout(t *testing.T) {
	w := testWorld(t, 4, 8)
	if w.Size() != 32 || w.RanksPerNode() != 8 {
		t.Fatalf("size=%d perNode=%d", w.Size(), w.RanksPerNode())
	}
	if w.Rank(0).Node().ID() != 0 || w.Rank(7).Node().ID() != 0 || w.Rank(8).Node().ID() != 1 {
		t.Fatal("node-major placement broken")
	}
}

func TestSendRecvPayload(t *testing.T) {
	w := testWorld(t, 2, 1)
	var got []byte
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 42, Message{Data: &window{buf: []byte("hello"), n: 5}, Size: 5})
		case 1:
			m := r.Recv(0, 42)
			got = m.Data.(*window).bytes()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("got %q", got)
	}
}

func TestRecvBeforeSendAndAfterSend(t *testing.T) {
	// Both orders must work: posted-receive matching and unexpected queue.
	w := testWorld(t, 2, 1)
	var early, late *Message
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(5 * sim.Millisecond)
			r.Send(1, 1, Message{Vals: []int64{111}})
			r.Send(1, 2, Message{Vals: []int64{222}})
		case 1:
			early = r.Recv(0, 1) // posted before the send
			r.Compute(50 * sim.Millisecond)
			late = r.Recv(0, 2) // send already arrived
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if early.Vals[0] != 111 || late.Vals[0] != 222 {
		t.Fatalf("early=%v late=%v", early, late)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	w := testWorld(t, 3, 1)
	var fromTag, fromSrc int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, 7, Message{Vals: []int64{70}})
		case 1:
			r.Send(2, 9, Message{Vals: []int64{90}})
		case 2:
			m := r.Recv(AnySource, 9)
			fromTag = m.Vals[0]
			m2 := r.Recv(0, AnyTag)
			fromSrc = m2.Vals[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fromTag != 90 || fromSrc != 70 {
		t.Fatalf("tag match got %d, src match got %d", fromTag, fromSrc)
	}
}

func TestMessageTransferTakesTime(t *testing.T) {
	w := testWorld(t, 2, 1)
	var recvAt sim.Time
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, Message{Size: 1_000_000}) // 1 MB at 1 GB/s per side
		case 1:
			r.Recv(0, 0)
			recvAt = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*sim.Millisecond + 10*sim.Microsecond; recvAt != want {
		t.Fatalf("recv at %v, want %v", recvAt, want)
	}
}

func TestIntraNodeMessageSkipsNIC(t *testing.T) {
	w := testWorld(t, 1, 2)
	var recvAt sim.Time
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 0, Message{Size: 10_000_000}) // 10 MB at 10 GB/s mem
		case 1:
			r.Recv(0, 0)
			recvAt = r.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if recvAt > 2*sim.Millisecond {
		t.Fatalf("intra-node message too slow: %v", recvAt)
	}
	if w.Rank(0).Node().TxBytes() != 0 {
		t.Fatal("intra-node message must not touch the NIC")
	}
}

func TestIsendWaitallOverlap(t *testing.T) {
	w := testWorld(t, 3, 1)
	var end sim.Time
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			reqs := []*Request{
				r.Isend(1, 0, Message{Size: 1_000_000}),
				r.Isend(2, 0, Message{Size: 1_000_000}),
			}
			r.Waitall(reqs)
			end = r.Now()
		default:
			r.Recv(0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sends complete at injection: 2 MB through the 1 GB/s NIC = ~2 ms,
	// without waiting for remote ejection.
	if end > 2*sim.Millisecond+sim.Millisecond {
		t.Fatalf("waitall end = %v", end)
	}
}

func TestGrequestExternalCompletion(t *testing.T) {
	w := testWorld(t, 1, 1)
	k := w.Kernel()
	var waited sim.Time
	err := w.Run(func(r *Rank) {
		req := w.NewGrequest()
		k.After(5*sim.Second, func() { req.Complete() })
		r.Wait(req)
		waited = r.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited != 5*sim.Second {
		t.Fatalf("grequest wait ended at %v", waited)
	}
}

func TestWaitOnCompletedRequestReturnsImmediately(t *testing.T) {
	w := testWorld(t, 1, 1)
	err := w.Run(func(r *Rank) {
		req := w.NewGrequest()
		req.Complete()
		if !req.Done() {
			t.Error("request should be done")
		}
		before := r.Now()
		r.Wait(req)
		if r.Now() != before {
			t.Error("wait on done request must not block")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInfoBasics(t *testing.T) {
	info := Info{}
	info.Set("cb_nodes", "16")
	if v, ok := info.Get("cb_nodes"); !ok || v != "16" {
		t.Fatal("get failed")
	}
	if info.GetDefault("missing", "x") != "x" {
		t.Fatal("default failed")
	}
	clone := info.Clone()
	clone.Set("cb_nodes", "32")
	if info["cb_nodes"] != "16" {
		t.Fatal("clone must not alias")
	}
	var nilInfo Info
	if _, ok := nilInfo.Get("k"); ok {
		t.Fatal("nil info must report unset")
	}
}

func TestSameSourceTagFIFOOrder(t *testing.T) {
	// Messages between one pair with one tag must match in send order.
	w := testWorld(t, 2, 1)
	var got []int64
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := int64(0); i < 8; i++ {
				r.Send(1, 3, Message{Vals: []int64{i}})
			}
		case 1:
			for i := 0; i < 8; i++ {
				got = append(got, r.Recv(0, 3).Vals[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestWaitallMixedSendRecv(t *testing.T) {
	w := testWorld(t, 2, 1)
	err := w.Run(func(r *Rank) {
		other := 1 - r.ID()
		recv := r.Irecv(other, 9)
		send := r.Isend(other, 9, Message{Vals: []int64{int64(r.ID())}})
		r.Waitall([]*Request{send, recv, nil}) // nils are tolerated
		if m := r.Wait(recv); m.Vals[0] != int64(other) {
			t.Errorf("rank %d got %v", r.ID(), m.Vals)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
