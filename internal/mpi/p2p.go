package mpi

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Message is a point-to-point message. Size is the wire size in bytes;
// Data and Vals optionally carry real content (Data for file payloads,
// Vals for control integers such as the two-phase size dissemination).
type Message struct {
	Src  int
	Dst  int
	Tag  int
	Size int64
	Data Payload
	Vals []int64

	relSeq uint64 // reliable-delivery stream sequence number
}

// Payload is a message's payload bytes, which the message borrows from its
// sender and never owns: the receiver reads them in place from memory the
// sender holds, and the sender keeps them valid and unchanged until every
// receiver is done with them. A duplicated or retransmitted copy of the
// message borrows the same bytes. The sender and receiver agree on the
// concrete type and on where each byte lies.
type Payload interface {
	// Len returns the number of payload bytes the message carries on the
	// wire, which may be fewer than the memory it points into.
	Len() int64
}

// Request is a nonblocking-operation handle (MPI_Request). A Request is
// also the unit of MPI generalized requests: external agents — such as the
// cache sync thread — complete it via Complete.
type Request struct {
	w      *World
	done   bool
	err    error    // terminal error status (generalized requests)
	msg    *Message // received message, for receive requests
	waiter *Rank    // rank parked in Wait, if any
}

// NewGrequest creates a generalized request that an external agent will
// Complete (MPI_Grequest_start).
func (w *World) NewGrequest() *Request { return &Request{w: w} }

// Done reports whether the operation has completed (MPI_Test).
func (q *Request) Done() bool { return q.done }

// Err returns the error status set at completion, nil for success or while
// still in flight (the MPI_ERROR field of the request's status).
func (q *Request) Err() error { return q.err }

// Complete marks the request finished and wakes its waiter
// (MPI_Grequest_complete for generalized requests; internal completion for
// sends and receives).
func (q *Request) Complete() {
	if q.done {
		panic("mpi: request completed twice")
	}
	q.done = true
	if q.waiter != nil {
		q.w.k.Wake(q.waiter.proc)
		q.waiter = nil
	}
}

// CompleteWithError completes the request with a terminal error status,
// which Wait surfaces to the waiter via Err.
func (q *Request) CompleteWithError(err error) {
	q.err = err
	q.Complete()
}

// Wait blocks rank r until the request completes and returns the received
// message (nil for send and generalized requests).
func (r *Rank) Wait(q *Request) *Message {
	r.checkKilled()
	if !q.done {
		if q.waiter != nil {
			panic("mpi: two ranks waiting on one request")
		}
		q.waiter = r
		r.waitReq = q
		r.proc.Park()
		r.waitReq = nil
		r.checkKilled()
	}
	return q.msg
}

// Waitall blocks until every request has completed (MPI_Waitall).
func (r *Rank) Waitall(reqs []*Request) {
	for _, q := range reqs {
		if q != nil {
			r.Wait(q)
		}
	}
}

// postedRecv is a receive waiting for a matching message.
type postedRecv struct {
	src int
	tag int
	req *Request
}

// mailbox holds posted receives and unexpected messages, in arrival order.
type mailbox struct {
	posted     []*postedRecv
	unexpected []*Message
}

func match(src, tag int, m *Message) bool {
	return (src == AnySource || src == m.Src) && (tag == AnyTag || tag == m.Tag)
}

// deliver hands an arrived message to the earliest matching posted receive,
// or queues it as unexpected. Messages for a dead rank are discarded.
func (r *Rank) deliver(m *Message) {
	if r.w.dead[r.id] {
		return
	}
	for i, pr := range r.mbox.posted {
		if match(pr.src, pr.tag, m) {
			r.mbox.posted = append(r.mbox.posted[:i], r.mbox.posted[i+1:]...)
			pr.req.msg = m
			pr.req.Complete()
			return
		}
	}
	r.mbox.unexpected = append(r.mbox.unexpected, m)
}

// Irecv posts a nonblocking receive matching (src, tag); wildcards
// AnySource and AnyTag are honoured in posting order.
func (r *Rank) Irecv(src, tag int) *Request {
	r.checkKilled()
	req := &Request{w: r.w}
	for i, m := range r.mbox.unexpected {
		if match(src, tag, m) {
			r.mbox.unexpected = append(r.mbox.unexpected[:i], r.mbox.unexpected[i+1:]...)
			req.msg = m
			req.done = true
			return req
		}
	}
	r.mbox.posted = append(r.mbox.posted, &postedRecv{src: src, tag: tag, req: req})
	return req
}

// Recv blocks until a matching message arrives.
func (r *Rank) Recv(src, tag int) *Message {
	return r.Wait(r.Irecv(src, tag))
}

// Isend starts a nonblocking send of m to world rank dst. The send request
// completes when the message has left the sending node (eager semantics);
// delivery happens after the fabric latency and receiver-side ejection.
func (r *Rank) Isend(dst, tag int, m Message) *Request {
	r.checkKilled()
	if dst < 0 || dst >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	if m.Data != nil && m.Data.Len() > m.Size {
		panic("mpi: message payload exceeds declared size")
	}
	x := &transfer{w: r.w, m: m, req: &Request{w: r.w}}
	if x.m.Size == 0 && x.m.Vals != nil {
		x.m.Size = int64(8 * len(x.m.Vals))
	}
	x.m.Src, x.m.Dst, x.m.Tag = r.id, dst, tag
	if dstRank := r.w.ranks[dst]; r.node == dstRank.node {
		// Same-node messages never touch the wire: no fate, no sequence
		// numbers, identical to the pre-reliability fast path.
		x.local = true
	} else {
		x.fate = r.w.fabric.MessageFate(r.node.ID(), dstRank.node.ID())
		if rel := r.w.rel; rel != nil {
			rel.stamp(&x.m)
		}
	}
	r.w.send(x)
	return x.req
}

// transfer is one message in flight. The step process that carries it
// walks the record through the sender's NIC, the wire and the receiver's
// NIC (or through the node's memory path), one stage per resume, so a
// message holds no worker while it waits. A retransmit charges the NIC and
// wire again, but the logical message was already traced and counted. A
// dropped or partitioned message charges the sender's injection port and
// vanishes; the reliable layer's loss reaction schedules the retransmit.
type transfer struct {
	w       *World
	m       Message
	req     *Request // send request to complete, nil for a retransmit
	fate    netsim.Fate
	local   bool // same-node message: the memory path
	retrans bool
	stage   int8
	tr      *trace.Tracer // nil unless the message's lifetime is traced
	aid     uint64
	p2pNs   *metrics.Histogram // p2p latency histogram, nil when not sampled
	t0      sim.Time           // Isend time, for the latency sample
	tSvc    sim.Time           // start of the current NIC service
}

// name names the process that carries the message. It is passed lazily to
// SpawnStep: the formatting only runs if a deadlock report or panic ever
// needs the name.
func (x *transfer) name() string {
	name := fmt.Sprintf("msg.%d->%d.t%d", x.m.Src, x.m.Dst, x.m.Tag)
	if x.retrans {
		return "re" + name
	}
	return name
}

// start traces the message's lifetime as an async span, begun on the
// sender's timeline at Isend and ended where the message is delivered or
// dropped, and samples the same lifetime in the p2p latency histogram.
func (x *transfer) start() {
	w := x.w
	src := w.ranks[x.m.Src]
	if x.tr = w.k.Tracer(); x.tr != nil {
		x.aid = x.tr.AsyncBegin(src.TraceTrack(x.tr), "mpi", "p2p", int64(w.k.Now()),
			trace.I("dst", int64(x.m.Dst)), trace.I("bytes", x.m.Size))
	}
	if w.metricsOn() {
		w.mP2PMsgs.Inc()
		w.mP2PBytes.Add(x.m.Size)
		x.p2pNs = w.mP2PNs
		x.t0 = w.k.Now()
	}
}

// end closes the traced lifetime on rank r's timeline.
func (x *transfer) end(r *Rank, now sim.Time) {
	if x.tr != nil {
		x.tr.AsyncEnd(r.TraceTrack(x.tr), "mpi", "p2p", x.aid, int64(now))
	}
}

// send starts the step process that carries x.
func (w *World) send(x *transfer) {
	if !x.retrans {
		x.start()
	}
	w.k.SpawnStep("", x.name, x.step)
}

// step advances the message by one stage at each resume of its process.
func (x *transfer) step(p *sim.Proc) {
	w := x.w
	src, dst := w.ranks[x.m.Src], w.ranks[x.m.Dst]
	switch x.stage {
	case 0:
		if x.local {
			src.node.LocalCopyThen(p, x.m.Size)
		} else {
			x.tSvc = src.node.InjectThen(p, x.m.Size)
		}
	case 1:
		if x.local {
			src.node.LocalCopyDone(x.m.Size)
			x.req.Complete()
			x.end(dst, p.Now())
			x.p2pNs.Observe(int64(p.Now() - x.t0))
			dst.deliver(&x.m)
			return
		}
		src.node.InjectDone(x.tSvc, x.m.Size)
		if x.req != nil {
			x.req.Complete() // eager semantics: the send buffer has left the node
		}
		if x.fate == netsim.FateDrop || x.fate == netsim.FatePartition {
			src.node.CountDrop()
			x.end(src, p.Now())
			w.onLost(x.m)
			return
		}
		p.Then(w.fabric.Latency())
	case 2:
		x.tSvc = dst.node.EjectThen(p, x.m.Size)
	case 3:
		dst.node.EjectDone(x.tSvc, x.m.Size)
		x.end(dst, p.Now())
		x.p2pNs.Observe(int64(p.Now() - x.t0))
		w.arrived(dst, &x.m)
		if x.fate == netsim.FateDup {
			dst.node.CountDup()
			dup := x.m
			w.arrived(dst, &dup)
		}
		return
	}
	x.stage++
}

// Send is a blocking send (Isend + Wait).
func (r *Rank) Send(dst, tag int, m Message) {
	r.Wait(r.Isend(dst, tag, m))
}

// SetPool makes p the cluster's byte pool, which the layers above reach
// through the World for their staging buffers. Call it before Run.
func (w *World) SetPool(p *bufpool.Pool) { w.pool = p }

// Pool returns the world's byte pool. It is nil when none was set; a nil
// pool still serves Get, by allocating.
func (w *World) Pool() *bufpool.Pool { return w.pool }
