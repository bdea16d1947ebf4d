package mpi

// Bcast distributes root's vals to every rank (MPI_Bcast).
func (c *Comm) Bcast(r *Rank, root int, vals []int64) []int64 {
	sp := c.beginColl(r, "bcast")
	defer func() { sp.end(r) }()
	if c.model == MessagePassing {
		return c.bcastWithTag(r, root, vals, c.advanceTagFor(c.RankOf(r)))
	}
	var n int64
	if c.RankOf(r) == root {
		n = int64(8 * len(vals))
	}
	st, _ := c.rendezvous(r, "bcast", n, vals)
	return st.inputs[root]
}

// RanksPerNode returns the process-per-node count.
func (w *World) RanksPerNode() int { return w.perNode }

// GetDefault returns the hint value, or def when unset.
func (i Info) GetDefault(key, def string) string {
	if v, ok := i.Get(key); ok {
		return v
	}
	return def
}

// Clone returns a copy of the info object.
func (i Info) Clone() Info {
	out := make(Info, len(i))
	for k, v := range i {
		out[k] = v
	}
	return out
}

// Outstanding returns how many sent messages are still retained awaiting
// an ack (lost messages whose retransmit budget ran out are released).
func (w *World) Outstanding() int {
	if w.rel == nil {
		return 0
	}
	return len(w.rel.outstanding)
}

// Streams returns how many streams hold sequence numbers.
func (w *World) Streams() int { return len(w.rel.streams) }

// Unsettled returns how many stamped messages are outstanding, pending or
// were given up.
func (w *World) Unsettled() int {
	return len(w.rel.outstanding) + len(w.rel.pending) + int(w.rel.giveUps)
}

// KeepStreams switches stream retirement off until the returned function
// restores it.
func KeepStreams() (restore func()) {
	retireStreams = false
	return func() { retireStreams = true }
}
