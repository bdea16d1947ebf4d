package sim

// Cond is a condition variable in virtual time. Because the simulation is
// single-threaded there is no associated lock: a process checks its
// predicate, calls Wait if it does not hold, and re-checks after waking.
type Cond struct {
	k       *Kernel
	waiters []*Proc
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
	c.waiters = append(c.waiters, p)
}

// Signal wakes the longest-waiting process, if any, and reports whether a
// process was woken.
func (c *Cond) Signal() bool {
	if len(c.waiters) == 0 {
		return false
	}
	p := c.waiters[0]
	c.waiters[0] = nil // the backing array must not keep p reachable
	c.waiters = c.waiters[1:]
	c.k.Wake(p)
	return true
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for _, p := range c.waiters {
		c.k.Wake(p)
	}
	c.waiters = nil
}

// Waiting returns the number of parked processes.
func (c *Cond) Waiting() int { return len(c.waiters) }
