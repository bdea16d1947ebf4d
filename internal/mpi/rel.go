package mpi

import (
	"errors"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file is the reliable-delivery layer: per-(src, dst, tag) stream
// sequence numbers assigned at Isend, sender-side retention of every
// in-flight message until the receiver's ack, retransmission on loss with
// capped exponential backoff and a bounded attempt budget, and
// receiver-side dedup of duplicated (or re-delivered) copies.
//
// Acks are modelled as zero-cost control-plane messages: the receiving NIC
// acknowledges synchronously at delivery time, and acks are never lost.
// This is deliberately simpler than a full sliding-window protocol — the
// simulator decides a message's fate (deliver/drop/duplicate) at send time,
// so a retransmit timer only ever needs to be armed for messages that were
// actually lost, and a successfully delivered message is acked exactly
// once. The observable behaviour is that of a correctly tuned reliable
// transport: no spurious retransmits, no perturbation of fault-free runs,
// and bounded retransmission under loss or partition.

// ErrRecvTimeout is returned by WaitDeadline when no matching message
// arrives within the deadline.
var ErrRecvTimeout = errors.New("mpi: receive timed out")

// The reliable-delivery layer's timing.
const (
	retransmitAfter = 10 * sim.Millisecond // initial retransmit backoff
	backoffCap      = 80 * sim.Millisecond // backoff ceiling
	maxAttempts     = 8                    // retransmits per message before giving up
)

// relKey identifies one message stream.
type relKey struct {
	src, dst, tag int
}

// outMsg is one unacked message retained by the sender.
type outMsg struct {
	msg      Message
	attempts int      // retransmissions so far
	backoff  sim.Time // next retransmit delay
	timer    *sim.Timer
}

// relState is the world-wide reliable-transport bookkeeping (the simulation
// is single-threaded, so one shared structure stands in for every rank's
// protocol endpoint).
type relState struct {
	nextSeq     map[relKey]uint64              // sender: next seq per stream
	outstanding map[relKey]map[uint64]*outMsg  // sender: unacked messages
	nextDeliver map[relKey]uint64              // receiver: next in-order seq
	pending     map[relKey]map[uint64]*Message // receiver: out-of-order buffer
	retransmits int64
	dedups      int64
	giveUps     int64

	// free is the outMsg recycle list. Every inter-node message allocates
	// one retention record; on kilo-rank runs that is one allocation per
	// message unless released records are reused. The simulation is
	// single-threaded, so a plain stack works.
	free []*outMsg
}

// getOut returns a retention record for m, reusing a released one when
// possible.
func (rel *relState) getOut(m *Message) *outMsg {
	var om *outMsg
	if n := len(rel.free); n > 0 {
		om = rel.free[n-1]
		rel.free = rel.free[:n-1]
	} else {
		om = new(outMsg)
	}
	om.msg, om.attempts, om.backoff, om.timer = *m, 0, retransmitAfter, nil
	return om
}

// putOut releases om for reuse. Safe against the stale-timer race: a
// recycled record can never be re-keyed under its old (stream, seq) —
// sequence numbers are never reused — so the pointer-identity check in the
// retransmit callback stays sound.
func (rel *relState) putOut(om *outMsg) {
	*om = outMsg{}
	rel.free = append(rel.free, om)
}

// EnableReliable arms the reliable-delivery layer for all inter-node
// point-to-point traffic (same-node messages never touch the wire and need
// no protection). Must be called before Run.
func (w *World) EnableReliable() {
	w.rel = &relState{
		nextSeq:     make(map[relKey]uint64),
		outstanding: make(map[relKey]map[uint64]*outMsg),
		nextDeliver: make(map[relKey]uint64),
		pending:     make(map[relKey]map[uint64]*Message),
	}
}

// ReliableEnabled reports whether the reliable-delivery layer is armed.
func (w *World) ReliableEnabled() bool { return w.rel != nil }

// Retransmits returns how many messages were retransmitted so far.
func (w *World) Retransmits() int64 {
	if w.rel == nil {
		return 0
	}
	return w.rel.retransmits
}

// DedupDrops returns how many duplicate deliveries the receiver side
// absorbed.
func (w *World) DedupDrops() int64 {
	if w.rel == nil {
		return 0
	}
	return w.rel.dedups
}

// stamp gives m, which its sender has addressed, the next sequence number
// of its stream and retains a copy of it until its ack arrives.
func (rel *relState) stamp(m *Message) {
	k := relKey{src: m.Src, dst: m.Dst, tag: m.Tag}
	m.relSeq = rel.nextSeq[k]
	rel.nextSeq[k]++
	if rel.outstanding[k] == nil {
		rel.outstanding[k] = make(map[uint64]*outMsg)
	}
	rel.outstanding[k][m.relSeq] = rel.getOut(m)
}

// ack releases the retained copy of (k, seq): the receiver has it.
func (rel *relState) ack(k relKey, seq uint64) {
	om := rel.outstanding[k][seq]
	if om == nil {
		return
	}
	if om.timer != nil {
		om.timer.Stop()
	}
	delete(rel.outstanding[k], seq)
	rel.putOut(om)
}

// onLost is the sender-side loss reaction: schedule a retransmit with the
// stream's current backoff, doubling it up to the cap, or give the message
// up once the attempt budget is spent (higher layers — collective timeouts
// and the ADIO failover — own recovery from there).
func (w *World) onLost(m Message) {
	rel := w.rel
	if rel == nil {
		return
	}
	k := relKey{src: m.Src, dst: m.Dst, tag: m.Tag}
	om := rel.outstanding[k][m.relSeq]
	if om == nil {
		return // already acked or given up
	}
	if om.attempts >= maxAttempts {
		rel.giveUps++
		if om.timer != nil {
			om.timer.Stop()
		}
		delete(rel.outstanding[k], m.relSeq)
		rel.putOut(om)
		return
	}
	om.attempts++
	d := om.backoff
	om.backoff *= 2
	if om.backoff > backoffCap {
		om.backoff = backoffCap
	}
	om.timer = w.k.AfterTimer(d, func() {
		if rel.outstanding[k][m.relSeq] != om {
			return // acked in the meantime
		}
		rel.retransmits++
		if mt := w.k.Metrics(); mt != nil {
			mt.Counter("mpi_retransmits_total", metrics.L(metrics.KeyLayer, "mpi")).Inc()
		}
		srcNode := w.ranks[m.Src].node
		dstNode := w.ranks[m.Dst].node
		fate := w.fabric.MessageFate(srcNode.ID(), dstNode.ID())
		w.send(&transfer{w: w, m: om.msg, fate: fate, retrans: true})
	})
}

// arrived runs the receiver-side protocol at delivery time: dedup,
// in-order resequencing, ack, then hand the message(s) to the rank's
// mailbox. A message arriving ahead of a lost predecessor is acked (it has
// been received) but buffered until the retransmitted gap fills, so every
// stream delivers in send order. Messages for dead ranks are still acked —
// the NIC is alive even when the process is not — and then discarded by
// deliver. A stream whose gap message exhausted its retransmit budget
// stalls; recovery from that belongs to the collective-timeout and
// failover layers above.
func (w *World) arrived(dst *Rank, m *Message) {
	rel := w.rel
	if rel == nil {
		dst.deliver(m)
		return
	}
	k := relKey{src: m.Src, dst: m.Dst, tag: m.Tag}
	next := rel.nextDeliver[k]
	if m.relSeq < next || (rel.pending[k] != nil && rel.pending[k][m.relSeq] != nil) {
		rel.dedups++
		if mt := w.k.Metrics(); mt != nil {
			mt.Counter("mpi_dedup_drops_total", metrics.L(metrics.KeyLayer, "mpi")).Inc()
		}
		return
	}
	rel.ack(k, m.relSeq)
	if m.relSeq > next {
		if rel.pending[k] == nil {
			rel.pending[k] = make(map[uint64]*Message)
		}
		rel.pending[k][m.relSeq] = m
		return
	}
	rel.nextDeliver[k] = next + 1
	dst.deliver(m)
	for {
		nm := rel.pending[k][rel.nextDeliver[k]]
		if nm == nil {
			return
		}
		delete(rel.pending[k], rel.nextDeliver[k])
		rel.nextDeliver[k]++
		dst.deliver(nm)
	}
}

// WaitDeadline waits for req like Wait but gives up after d, cancelling
// the posted receive so a late message cannot complete the abandoned
// request. The deadline timer is cancellable: when the request completes
// in time (the fault-free path) the timer leaves no trace in virtual time.
func (r *Rank) WaitDeadline(q *Request, d sim.Time) (*Message, error) {
	r.checkKilled()
	if q.done {
		return q.msg, q.err
	}
	if q.waiter != nil {
		panic("mpi: two ranks waiting on one request")
	}
	timedOut := false
	tm := r.w.k.AfterTimer(d, func() {
		if q.done || q.waiter != r {
			return // completed, or the waiter was detached (e.g. Kill)
		}
		timedOut = true
		q.waiter = nil
		r.w.k.Wake(r.proc)
	})
	q.waiter = r
	r.waitReq = q
	r.proc.Park()
	r.waitReq = nil
	r.checkKilled()
	tm.Stop()
	if timedOut && !q.done {
		r.cancelRecv(q)
		return nil, fmt.Errorf("%w after %v", ErrRecvTimeout, d)
	}
	return q.msg, q.err
}

// cancelRecv withdraws the posted receive backing q, if any.
func (r *Rank) cancelRecv(q *Request) {
	for i, pr := range r.mbox.posted {
		if pr.req == q {
			r.mbox.posted = append(r.mbox.posted[:i], r.mbox.posted[i+1:]...)
			return
		}
	}
}
