package sim

// Cond is a condition variable in virtual time. Because the simulation is
// single-threaded there is no associated lock: a process checks its
// predicate, calls Wait if it does not hold, and re-checks after waking.
type Cond struct {
	k       *Kernel
	waiters procQueue
}

// NewCond creates a condition variable on kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	p.mustBlock()
	c.WaitThen(p)
	p.block()
}

// WaitThen queues the step process p to resume at the Signal or Broadcast
// that wakes it (Wait is WaitThen followed by a block).
func (c *Cond) WaitThen(p *Proc) {
	p.armed = true
	c.waiters.push(p)
}

// Signal wakes the longest-waiting process, if any, and reports whether a
// process was woken.
func (c *Cond) Signal() bool {
	if c.waiters.len() == 0 {
		return false
	}
	c.k.Wake(c.waiters.pop())
	return true
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.k.Wake(c.waiters.pop())
	}
}

// procQueue is a FIFO of parked processes that keeps its backing array: a
// pop advances a head index, and a push into a full array whose front half
// is popped slides the queue to the front instead of growing it (O(1)
// amortized). The array stops growing once it is twice the longest queue.
type procQueue struct {
	ps   []*Proc
	head int // ps[head:] are queued, oldest first
}

func (q *procQueue) len() int { return len(q.ps) - q.head }

func (q *procQueue) push(p *Proc) {
	if len(q.ps) == cap(q.ps) && q.head > 0 && 2*q.head >= len(q.ps) {
		n := copy(q.ps, q.ps[q.head:])
		clear(q.ps[n:])
		q.ps, q.head = q.ps[:n], 0
	}
	q.ps = append(q.ps, p)
}

// pop removes and returns the oldest process; the queue must not be empty.
func (q *procQueue) pop() *Proc {
	p := q.ps[q.head]
	q.ps[q.head] = nil // the backing array must not keep p reachable
	q.head++
	return p
}
