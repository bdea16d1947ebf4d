package adio

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpe"
	"repro/internal/mpi"
)

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
	tag0 := epochTag(c, r)
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
		reqTag := tag0 + 2*(m&0x7fff)
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
			// Each needed run is read to its offset in the collective
			// buffer; a failed read leaves zeros, never an earlier round's
			// bytes. The replies view the window in place.
			var wbuf []byte
			var wv view
			if payload {
				wbuf = f.collBuf(win.Len)
				wv = view{segs: []extent.Extent{win}, pre: []int64{0, win.Len}, buf: wbuf}
			}
			span2 := mpe.StartSpan(r.Now())
			for _, run := range need.Extents() {
				var rd []byte
				if payload {
					rd = wbuf[run.Off-win.Off : run.End()-win.Off]
				}
				if err := f.ReadContig(rd, run.Off, run.Len); err != nil {
					clear(rd)
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			span2.End(log, mpe.PhaseWrite, r.Now()) // file I/O time
			// Reply to every requester.
			for _, q := range reqs {
				msg := exchangeMsg(q.exts, false, wv)
				f.Stats.BytesExchanged += msg.Size
				r.Send(c.Member(q.src).ID(), repTag, msg)
			}
			if repliesSent != nil {
				repliesSent(wbuf)
			}
			// Local pieces for this aggregator's own request.
			if payload {
				for _, e := range selfExts {
					copyIntoSegs(wv.at(e), e, segs, pre, buf)
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
			v := msg.Data.(*view)
			for _, e := range replyExts[i] {
				copyIntoSegs(v.at(e), e, segs, pre, buf)
			}
		}
		span.End(log, mpe.PhaseExchWaitall, r.Now())
	}

	// Every request was answered even after a failed read, so no rank is
	// left waiting; the error codes travel as in the write path.
	return f.exchangeErr(c, nil, firstErr, "read")
}

// repliesSent, when set, sees an aggregator's window right after the
// aggregator has sent a round's replies. It is a test-only hook: a test
// clears the window to check that the read-back check catches a window
// changed while replies still view it.
var repliesSent func(window []byte)
