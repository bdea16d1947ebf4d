package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// window is a test payload: the n bytes buf[at:at+n], which the message
// borrows from its sender.
type window struct {
	buf   []byte
	at, n int
}

func (v *window) Len() int64 { return int64(v.n) }

// bytes returns the borrowed bytes, in place.
func (v *window) bytes() []byte { return v.buf[v.at : v.at+v.n] }

// lent is the window of m, which must carry one.
func lent(t *testing.T, m *Message) []byte {
	t.Helper()
	v, ok := m.Data.(*window)
	if !ok {
		t.Fatalf("message %d->%d carries %T, want the sender's *window", m.Src, m.Dst, m.Data)
	}
	return v.bytes()
}

// TestBorrowedPayloadSurvivesLossAndDuplication: over a lossy, duplicating
// link under reliable delivery, every message reaches the receiver once,
// in order, still viewing the sender's own bytes, whether it arrived first
// time or as a retransmit, and duplicates are absorbed.
func TestBorrowedPayloadSurvivesLossAndDuplication(t *testing.T) {
	w := testWorld(t, 2, 1)
	w.EnableReliable()
	w.fabric.Node(0).SetLossy(0.3)
	w.fabric.Node(0).SetDup(0.3)
	const msgs, size = 64, 512
	src := make([]byte, msgs*size)
	for i := range src {
		src[i] = byte(i*7 + i/size)
	}
	want := bytes.Clone(src)
	err := w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			for i := 0; i < msgs; i++ {
				r.Send(1, 9, Message{Data: &window{buf: src, at: i * size, n: size}, Size: size + 16})
			}
		case 1:
			for i := 0; i < msgs; i++ {
				m := r.Recv(0, 9)
				got := lent(t, m)
				if &got[0] != &src[i*size] {
					t.Errorf("message %d does not view the sender's bytes", i)
				}
				if !bytes.Equal(got, want[i*size:(i+1)*size]) {
					t.Errorf("message %d delivers other bytes", i)
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
	if n := w.Outstanding(); n != 0 {
		t.Fatalf("%d messages still retained after every ack", n)
	}
}

// TestDuplicateBorrowsSenderBytes: without reliable delivery a duplicated
// message delivers a second copy, and both copies view the sender's bytes.
// In the overwrite variant the sender changes its buffer while the copies
// are on the wire, and both copies must show the change: the transport
// never copied the payload.
func TestDuplicateBorrowsSenderBytes(t *testing.T) {
	for _, overwrite := range []bool{false, true} {
		t.Run(fmt.Sprintf("overwrite=%v", overwrite), func(t *testing.T) {
			w := testWorld(t, 2, 1)
			w.fabric.Node(0).SetDup(0.999)
			src := []byte("borrowed, never copied")
			want := bytes.Clone(src)
			err := w.Run(func(r *Rank) {
				switch r.ID() {
				case 0:
					r.Send(1, 5, Message{Data: &window{buf: src, n: len(src)}, Size: int64(len(src))})
					if overwrite {
						copy(src, "BORROWED")
						copy(want, "BORROWED")
					}
				case 1:
					first, dup := r.Recv(0, 5), r.Recv(0, 5)
					for _, m := range []*Message{first, dup} {
						if got := lent(t, m); !bytes.Equal(got, want) {
							t.Errorf("a copy delivers %q, want %q", got, want)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if n := w.fabric.Node(1).Dups() + w.fabric.Node(0).Dups(); n != 1 {
				t.Fatalf("%d duplicates, want 1", n)
			}
		})
	}
}

// TestIsendChecksPayloadBytes: Isend bounds the payload bytes a message
// carries on the wire by its Size, not the memory its view points into.
func TestIsendChecksPayloadBytes(t *testing.T) {
	buf := make([]byte, 4096)
	for _, tc := range []struct {
		n, size int
		panics  bool
	}{{100, 116, false}, {100, 100, false}, {100, 99, true}} {
		w := testWorld(t, 2, 1)
		var panicked string
		err := w.Run(func(r *Rank) {
			switch r.ID() {
			case 0:
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicked = fmt.Sprint(p)
						}
					}()
					r.Send(1, 1, Message{Data: &window{buf: buf, at: 8, n: tc.n}, Size: int64(tc.size)})
				}()
				if panicked != "" {
					r.Send(1, 1, Message{Size: 1}) // release the receiver
				}
			case 1:
				r.Recv(0, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(panicked, "exceeds declared size"); got != tc.panics {
			t.Errorf("%d payload bytes in a %d-byte message into a %d-byte window: panicked %q, want panic %v",
				tc.n, tc.size, len(buf), panicked, tc.panics)
		}
	}
}
