package mpi

// Additional collectives completing the communicator surface: Reduce,
// Gather, Scatter, Scan, Sendrecv and communicator Split. ROMIO's
// collective write only needs the core set in collectives.go, but tools
// and applications built on this library (and ROMIO itself in other code
// paths) use these as well. They share the analytic/message-passing split
// of the core set via the same rendezvous machinery.

// Reduce combines vals element-wise with op; only root receives the result
// (other ranks get nil).
func (c *Comm) Reduce(r *Rank, root int, vals []int64, op Op) []int64 {
	if c.model == MessagePassing {
		return c.msgReduce(r, root, vals, op)
	}
	inputs := c.sync(r, "allreduce", int64(8*len(vals)), vals)
	if c.RankOf(r) != root {
		return nil
	}
	out := make([]int64, len(vals))
	copy(out, inputs[0])
	for _, in := range inputs[1:] {
		for j := range out {
			out[j] = op(out[j], in[j])
		}
	}
	return out
}

func (c *Comm) msgReduce(r *Rank, root int, vals []int64, op Op) []int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	// Reduce over ranks relative to root using a binomial tree.
	rel := (me - root + p) % p
	acc := make([]int64, len(vals))
	copy(acc, vals)
	for dist := 1; dist < p; dist *= 2 {
		if rel%(2*dist) == 0 {
			if rel+dist < p {
				src := (rel + dist + root) % p
				m := r.Recv(c.ranks[src].id, tag)
				for j := range acc {
					acc[j] = op(acc[j], m.Vals[j])
				}
			}
		} else {
			dst := (rel - dist + root) % p
			r.Send(c.ranks[dst].id, tag, Message{Vals: acc})
			return nil
		}
	}
	return acc
}

// Gather collects each rank's vals at root; root receives one slice per
// comm rank, others nil (MPI_Gather / MPI_Gatherv).
func (c *Comm) Gather(r *Rank, root int, vals []int64) [][]int64 {
	if c.model == MessagePassing {
		return c.msgGather(r, root, vals)
	}
	inputs := c.sync(r, "allgather", int64(8*len(vals)), vals)
	if c.RankOf(r) != root {
		return nil
	}
	out := make([][]int64, len(inputs))
	copy(out, inputs)
	return out
}

func (c *Comm) msgGather(r *Rank, root int, vals []int64) [][]int64 {
	me := c.RankOf(r)
	tag := c.advanceTagFor(me)
	p := len(c.ranks)
	if me != root {
		r.Send(c.ranks[root].id, tag, Message{Vals: vals})
		return nil
	}
	out := make([][]int64, p)
	out[root] = vals
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		m := r.Recv(c.ranks[src].id, tag)
		out[src] = m.Vals
	}
	return out
}

// Scatter distributes parts[i] from root to comm rank i; every rank
// returns its own part (MPI_Scatter). Non-root callers pass nil parts.
func (c *Comm) Scatter(r *Rank, root int, parts [][]int64) []int64 {
	me := c.RankOf(r)
	if c.model == MessagePassing {
		tag := c.advanceTagFor(me)
		if me == root {
			for dst := 0; dst < len(c.ranks); dst++ {
				if dst == root {
					continue
				}
				r.Send(c.ranks[dst].id, tag, Message{Vals: parts[dst]})
			}
			return parts[root]
		}
		return r.Recv(c.ranks[root].id, tag).Vals
	}
	var flat []int64
	var n int64
	if me == root {
		for _, part := range parts {
			flat = append(flat, int64(len(part)))
			flat = append(flat, part...)
		}
		n = int64(8 * len(flat))
	}
	inputs := c.sync(r, "bcast", n, flat)
	rootFlat := inputs[root]
	// Decode my part from the root's flattened vector.
	idx := 0
	for rank := 0; rank <= me; rank++ {
		l := int(rootFlat[idx])
		idx++
		if rank == me {
			return rootFlat[idx : idx+l]
		}
		idx += l
	}
	return nil
}

// Scan computes the inclusive prefix reduction: rank i receives the
// combination of ranks 0..i (MPI_Scan).
func (c *Comm) Scan(r *Rank, vals []int64, op Op) []int64 {
	me := c.RankOf(r)
	if c.model == MessagePassing {
		tag := c.advanceTagFor(me)
		acc := make([]int64, len(vals))
		copy(acc, vals)
		if me > 0 {
			m := r.Recv(c.ranks[me-1].id, tag)
			for j := range acc {
				acc[j] = op(m.Vals[j], acc[j])
			}
		}
		if me < len(c.ranks)-1 {
			r.Send(c.ranks[me+1].id, tag, Message{Vals: acc})
		}
		return acc
	}
	inputs := c.sync(r, "allgather", int64(8*len(vals)), vals)
	out := make([]int64, len(vals))
	copy(out, inputs[0])
	for i := 1; i <= me; i++ {
		for j := range out {
			out[j] = op(out[j], inputs[i][j])
		}
	}
	return out
}

// Sendrecv performs a simultaneous send to dst and receive from src
// (MPI_Sendrecv), avoiding the deadlock of two blocking calls.
func (r *Rank) Sendrecv(dst, dtag int, m Message, src, stag int) *Message {
	recv := r.Irecv(src, stag)
	send := r.Isend(dst, dtag, m)
	r.Wait(send)
	return r.Wait(recv)
}

// Split partitions the communicator by color; ranks with equal color land
// in a new communicator ordered by (key, rank), as MPI_Comm_split. Every
// member must call it; callers with color < 0 (MPI_UNDEFINED) get nil.
// The grouping is computed via an Allgather of (color, key) pairs, so it
// costs one collective.
func (c *Comm) Split(r *Rank, color, key int) *Comm {
	pairs := c.Allgather(r, []int64{int64(color), int64(key)})
	if color < 0 {
		return nil
	}
	type member struct {
		rank int // position in c
		key  int64
	}
	var members []member
	for i, p := range pairs {
		if p[0] == int64(color) {
			members = append(members, member{rank: i, key: p[1]})
		}
	}
	// Stable order by (key, rank).
	for i := 1; i < len(members); i++ {
		for j := i; j > 0 && (members[j].key < members[j-1].key ||
			(members[j].key == members[j-1].key && members[j].rank < members[j-1].rank)); j-- {
			members[j], members[j-1] = members[j-1], members[j]
		}
	}
	ids := make([]int, len(members))
	for i, m := range members {
		ids[i] = c.ranks[m.rank].id
	}
	// All members must share one communicator object so that collective
	// rendezvous state matches; intern by membership.
	nc := c.w.intern("", ids)
	nc.model = c.model
	return nc
}
