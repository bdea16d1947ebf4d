package sim

// eventQueue is the kernel's pending-event set, ordered by (t, seq).
//
// It replaces a container/heap binary heap, which boxed every event into
// an interface{} on Push and Pop — one heap allocation per scheduled
// event. This queue is two-tier and allocation-free in steady state:
//
//   - now: a FIFO ring of events scheduled for the current virtual time.
//     Same-time scheduling (Wake, Sleep(0), After(0)) is the kernel's
//     most common operation, and such events are pushed in seq order and
//     consumed in seq order, so a ring is already sorted — push and pop
//     are O(1).
//   - future: a 4-ary min-heap of events scheduled for a later time.
//     4-ary halves the tree depth of a binary heap. The heap holds only
//     pointer-free (t, seq, slot) keys, so its sifts move 24-byte keys
//     with no write barriers and the garbage collector never scans it;
//     each key's payload (the process, callback and timer) waits in slot
//     of a slab, whose freed slots a free list hands out again.
//
// Pop compares the ring head against the heap top under the same (t, seq)
// total order the old heap used, so the pop sequence — and with it every
// virtual-time tie-break — is bit-for-bit identical. The invariants that
// make the ring correct:
//
//   - seq increases monotonically with Push calls, so ring entries are
//     FIFO-sorted by seq and share t == now-at-push.
//   - a heap entry with the same t as a ring entry was necessarily pushed
//     earlier (while that t was still in the future), so its seq is
//     smaller and the compare pops it first.
//   - time only advances by popping a future event, which the compare
//     permits only once the ring is empty.
type eventQueue struct {
	now     []event    // FIFO ring of events at the current virtual time
	head    int        // index of the ring's oldest entry
	future  []eventKey // 4-ary min-heap on (t, seq)
	slab    []payload  // payloads of the future events, by eventKey.slot
	free    []int32    // unused slab slots, reused LIFO
	current Time       // the "now" the ring is bucketed on
}

// eventKey orders a future event; slot locates its payload in the slab.
type eventKey struct {
	t    Time
	seq  uint64
	slot int32
}

// payload is what a future event does when it fires.
type payload struct {
	p  *Proc
	fn func()
	tm *Timer
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int {
	return (len(q.now) - q.head) + len(q.future)
}

// keyBefore is the queue's total order: earlier time first, then lower
// sequence number (FIFO among same-time events).
func keyBefore(a, b *eventKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Push inserts ev. now is the kernel's current virtual time; events
// scheduled exactly at it take the ring fast path.
func (q *eventQueue) Push(ev event, now Time) {
	if ev.t == now && q.ringUsable(now) {
		q.now = append(q.now, ev)
		q.current = now
		return
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		slot = int32(len(q.slab))
		q.slab = append(q.slab, payload{})
	}
	q.slab[slot] = payload{p: ev.p, fn: ev.fn, tm: ev.tm}
	q.future = append(q.future, eventKey{t: ev.t, seq: ev.seq, slot: slot})
	q.up(len(q.future) - 1)
}

// ringUsable reports whether the ring can accept an event at now: it is
// empty (and can be re-bucketed) or already holds events at this time.
func (q *eventQueue) ringUsable(now Time) bool {
	if q.head == len(q.now) {
		q.now = q.now[:0]
		q.head = 0
		return true
	}
	return q.current == now
}

// Pop removes and returns the smallest pending event under (t, seq).
// It must not be called on an empty queue.
func (q *eventQueue) Pop() event {
	if q.head < len(q.now) {
		ev := &q.now[q.head]
		if len(q.future) == 0 || keyBefore(&eventKey{t: ev.t, seq: ev.seq}, &q.future[0]) {
			out := *ev
			*ev = event{} // release fn/p/tm references
			q.head++
			return out
		}
	}
	key := q.future[0]
	n := len(q.future) - 1
	q.future[0] = q.future[n]
	q.future = q.future[:n]
	if n > 0 {
		q.down()
	}
	pl := &q.slab[key.slot]
	ev := event{t: key.t, seq: key.seq, p: pl.p, fn: pl.fn, tm: pl.tm}
	*pl = payload{} // the slab must not keep a finished event's references
	q.free = append(q.free, key.slot)
	return ev
}

const heapArity = 4

func (q *eventQueue) up(i int) {
	h := q.future
	x := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !keyBefore(&x, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
}

// down sifts the root key to its place: the hole moves down to the
// smallest child until no child is smaller than the key.
func (q *eventQueue) down() {
	h := q.future
	n := len(h)
	x := h[0]
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+heapArity, n)
		for c := first + 1; c < last; c++ {
			if keyBefore(&h[c], &h[best]) {
				best = c
			}
		}
		if !keyBefore(&h[best], &x) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}
