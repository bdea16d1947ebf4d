package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bufpool"
)

// poisonedWorld is testWorld with a poisoning byte pool.
func poisonedWorld(t *testing.T, nodes, perNode int) *World {
	t.Helper()
	defer bufpool.SetPoison(bufpool.SetPoison(true))
	w := testWorld(t, nodes, perNode)
	w.SetPool(bufpool.New())
	return w
}

// pooledMsg is a message whose payload comes from w's pool.
func pooledMsg(w *World, fill byte) Message {
	data := w.Pool().Get(4096)
	for i := range data {
		data[i] = fill + byte(i)
	}
	return Message{Data: data, Size: int64(len(data))}
}

// TestReleaseRecyclesPayload: a released payload goes back to the pool,
// and reading it afterwards trips the poison check.
func TestReleaseRecyclesPayload(t *testing.T) {
	w := poisonedWorld(t, 2, 1)
	want := bytes.Clone(pooledMsg(w, 7).Data)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(1, 5, pooledMsg(w, 7))
		case 1:
			m := r.Recv(0, 5)
			if !bytes.Equal(m.Data, want) {
				t.Error("payload corrupted in flight")
			}
			w.Release(m)
			if !bufpool.Poisoned(m.Data) {
				t.Error("a read after release does not trip the poison check")
			}
			if again := w.Pool().Get(4096); &again[0] != &m.Data[0] {
				t.Error("the released payload was not recycled")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleaseWaitsForDuplicate: without reliable delivery a duplicated
// message delivers a second copy sharing the payload. Releasing the first
// copy must not recycle the payload while the duplicate is queued; the
// sabotaged variant hands it to the pool anyway, and receiving the
// duplicate must then trip the poison check.
func TestReleaseWaitsForDuplicate(t *testing.T) {
	for _, sabotage := range []bool{false, true} {
		t.Run(fmt.Sprintf("sabotage=%v", sabotage), func(t *testing.T) {
			w := poisonedWorld(t, 2, 1)
			w.fabric.Node(0).SetDup(0.999)
			want := bytes.Clone(pooledMsg(w, 3).Data)
			var panicked string
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicked = fmt.Sprint(r)
					}
				}()
				err := w.Run(func(r *Rank) {
					switch r.ID() {
					case 0:
						r.Send(1, 5, pooledMsg(w, 3))
					case 1:
						first := r.Recv(0, 5)
						if sabotage {
							w.Pool().Put(first.Data) // ignores the duplicate's reference
						} else {
							w.Release(first)
						}
						if bufpool.Poisoned(first.Data) != sabotage {
							t.Errorf("payload poisoned = %v after releasing the first of two copies", !sabotage)
						}
						dup := r.Recv(0, 5)
						if !bytes.Equal(dup.Data, want) {
							t.Error("the duplicate's payload changed")
						}
						w.Release(dup)
						if !bufpool.Poisoned(dup.Data) {
							t.Error("releasing the last copy did not recycle the payload")
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}()
			if n := w.fabric.Node(1).Dups(); n != 1 {
				t.Fatalf("%d duplicates, want 1", n)
			}
			if got := strings.Contains(panicked, "released before it was received"); got != sabotage {
				t.Fatalf("poison check tripped = %v (panic %q), want %v", got, panicked, sabotage)
			}
		})
	}
}

// TestReliableRefsBalance: under reliable delivery over a lossy,
// duplicating link, every retention record, retransmit and duplicate
// reference is dropped again, so once the receiver has released every
// payload the world tracks no reference and every payload was recycled.
func TestReliableRefsBalance(t *testing.T) {
	w := poisonedWorld(t, 2, 1)
	w.EnableReliable(ReliableConfig{})
	w.fabric.Node(0).SetLossy(0.3)
	w.fabric.Node(0).SetDup(0.3)
	const msgs = 64
	var recycled int
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < msgs; i++ {
				r.Send(1, 9, pooledMsg(w, byte(i)))
			}
		case 1:
			for i := 0; i < msgs; i++ {
				m := r.Recv(0, 9)
				if m.Data[0] != byte(i) {
					t.Errorf("message %d carries payload %d", i, m.Data[0])
				}
				w.Release(m)
				if bufpool.Poisoned(m.Data) {
					recycled++
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Retransmits() == 0 || w.DedupDrops() == 0 {
		t.Fatalf("retransmits %d, dedup drops %d: the link exercised neither", w.Retransmits(), w.DedupDrops())
	}
	if len(w.refs) != 0 || recycled != msgs {
		t.Fatalf("%d payloads still referenced, %d of %d recycled", len(w.refs), recycled, msgs)
	}
}
