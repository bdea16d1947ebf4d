package adio

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/store"
)

// tagReadBase is the tag space for collective-read request/reply messages.
const tagReadBase = 1 << 26

// ReadStridedColl is ADIOI_GEN_ReadStridedColl: the collective read twin of
// the extended two-phase algorithm. Aggregators read their file-domain
// windows from the file system and scatter the pieces to the requesting
// ranks round by round; the structure (offset exchange, interleaving check,
// file domains, per-round Alltoall dissemination, Isend/Irecv/Waitall)
// mirrors the write path. Reads always target the global file: §III-B of
// the paper explains why reads from other ranks' caches are unsupported.
func (f *File) ReadStridedColl(segs []extent.Extent, buf []byte) error {
	r, c, log := f.rank, f.comm, f.log
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if buf != nil && int64(len(buf)) != total {
		return fmt.Errorf("adio: buffer length %d != segment total %d", len(buf), total)
	}

	// Offset exchange, interleaving check and file domains, as in the
	// write path.
	span := mpe.StartSpan(r.Now())
	p, err := f.plan(c, segs, f.hints.CBRead)
	span.End(log, mpe.PhaseCalc, r.Now())
	if err != nil {
		return err
	}
	if p.indep {
		return f.ReadStrided(segs, buf)
	}
	if p.fds == nil {
		c.Allreduce(r, []int64{0}, mpi.MaxOp)
		return nil
	}
	pre := prefixSums(segs, buf)
	payload := buf != nil

	var firstErr error
	rp := &f.round
	for m := 0; m < p.ntimes; m++ {
		reqTag := tagReadBase + 2*(m&0x7fff)
		repTag := reqTag + 1

		// What do I want from each aggregator this round?
		rp.planRound(segs, p.fds, p.aggList, p.cb, m)

		span = mpe.StartSpan(r.Now())
		reqCounts := c.Alltoall(r, rp.send)
		span.End(log, mpe.PhaseShuffleA2A, r.Now())

		span = mpe.StartSpan(r.Now())
		// Aggregators receive the extent requests.
		var reqReqs []*mpi.Request
		var reqSrcs []int
		if p.myAgg >= 0 {
			for k := 0; k < len(reqCounts); k += 2 {
				if src := int(reqCounts[k]); src != p.me {
					reqReqs = append(reqReqs, r.Irecv(c.Member(src).ID(), reqTag))
					reqSrcs = append(reqSrcs, src)
				}
			}
		}
		// Send extent requests; post receives for the replies.
		var replyReqs []*mpi.Request
		var replyExts [][]extent.Extent
		var selfExts []extent.Extent
		for _, g := range rp.groups {
			exts := rp.exts(g)
			if p.aggList[g.agg] == p.me {
				selfExts = exts
				continue
			}
			vals := make([]int64, 0, 2*len(exts))
			for _, e := range exts {
				vals = append(vals, e.Off, e.Len)
			}
			aggWorld := c.Member(p.aggList[g.agg]).ID()
			replyReqs = append(replyReqs, r.Irecv(aggWorld, repTag))
			replyExts = append(replyExts, exts)
			r.Send(aggWorld, reqTag, mpi.Message{Vals: vals})
		}
		r.Waitall(reqReqs)

		// Aggregator: read the covering range once (data-sieving read) and
		// answer every request.
		if win := p.window(m); !win.Empty() {
			var need extent.Set
			type request struct {
				src  int
				exts []extent.Extent
			}
			var reqs []request
			for i, q := range reqReqs {
				msg := r.Wait(q)
				var exts []extent.Extent
				for j := 0; j+1 < len(msg.Vals); j += 2 {
					e := extent.Extent{Off: msg.Vals[j], Len: msg.Vals[j+1]}
					exts = append(exts, e)
					need.Add(e)
				}
				reqs = append(reqs, request{src: reqSrcs[i], exts: exts})
			}
			for _, e := range selfExts {
				need.Add(e)
			}
			var scratch store.Store
			span2 := mpe.StartSpan(r.Now())
			for _, run := range need.Extents() {
				run = run.Intersect(win)
				if run.Empty() {
					continue
				}
				var rd []byte
				if payload {
					rd = make([]byte, run.Len)
				}
				if err := f.ReadContig(rd, run.Off, run.Len); err != nil && firstErr == nil {
					firstErr = err
				}
				if payload {
					if scratch == nil {
						scratch = store.NewMem()
					}
					scratch.WriteAt(rd, run.Off, run.Len)
				}
			}
			span2.End(log, mpe.PhaseWrite, r.Now()) // file I/O time
			// Reply to every requester.
			for _, q := range reqs {
				msg := buildReadReply(q.exts, scratch)
				f.Stats.BytesExchanged += msg.Size
				r.Send(c.Member(q.src).ID(), repTag, msg)
			}
			// Local pieces for this aggregator's own request.
			if len(selfExts) > 0 && payload {
				for _, e := range selfExts {
					rd := make([]byte, e.Len)
					scratch.ReadAt(rd, e.Off)
					copyIntoSegs(rd, e, segs, pre, buf)
				}
			}
		}

		// Collect the replies and place them into the caller's buffer.
		r.Waitall(replyReqs)
		for i, q := range replyReqs {
			msg := r.Wait(q)
			if !payload {
				continue
			}
			var cursor int64
			for _, e := range replyExts[i] {
				copyIntoSegs(msg.Data[cursor:cursor+e.Len], e, segs, pre, buf)
				cursor += e.Len
			}
		}
		span.End(log, mpe.PhaseExchWaitall, r.Now())
	}

	// Every request was answered even after a failed read, so no rank is
	// left waiting; the error codes travel as in the write path.
	return f.exchangeErr(firstErr, "read")
}

// buildReadReply packs the bytes of exts (from the aggregator's scratch
// buffer) into a reply message, reading each extent straight into its
// slice of a payload allocated once at its final length.
func buildReadReply(exts []extent.Extent, scratch store.Store) mpi.Message {
	var bytes int64
	for _, e := range exts {
		bytes += e.Len
	}
	var payload []byte
	if scratch != nil && bytes > 0 {
		payload = make([]byte, bytes)
		var cursor int64
		for _, e := range exts {
			scratch.ReadAt(payload[cursor:cursor+e.Len], e.Off)
			cursor += e.Len
		}
	}
	return mpi.Message{Data: payload, Size: bytes + 16*int64(len(exts))}
}

// copyIntoSegs places the bytes of file extent e into the caller's
// segment-ordered buffer.
func copyIntoSegs(data []byte, e extent.Extent, segs []extent.Extent, pre []int64, buf []byte) {
	for i := segSearch(segs, e.Off); i < len(segs) && segs[i].Off < e.End(); i++ {
		s := segs[i]
		ov := s.Intersect(e)
		dst := pre[i] + (ov.Off - s.Off)
		src := ov.Off - e.Off
		copy(buf[dst:dst+ov.Len], data[src:src+ov.Len])
	}
}
