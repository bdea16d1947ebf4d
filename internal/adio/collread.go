package adio

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/store"
)

// ReadStridedColl is ADIOI_GEN_ReadStridedColl: the collective read twin of
// the extended two-phase algorithm. Aggregators read their file-domain
// windows from the file system and scatter the pieces to the requesting
// ranks round by round, the store read copying each byte straight into the
// buffer its requester lent with the request. The structure (offset
// exchange, interleaving check, file domains, per-round Alltoall
// dissemination, Isend/Irecv/Waitall) mirrors the write path. Reads always
// target the global file: §III-B of the paper explains why reads from
// other ranks' caches are unsupported.
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
	// This rank's destination, which each of its requests lends to the
	// aggregator serving it.
	var own *view
	if buf != nil {
		own = &view{segs: segs, pre: prefixSums(segs, buf), buf: buf}
	}

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
		var selfExts []extent.Extent
		for _, g := range rp.groups {
			exts := rp.exts(g)
			if p.aggList[g.agg] == p.me {
				selfExts = exts
				continue
			}
			var req mpi.Message
			req.Vals = make([]int64, 0, 2*len(exts))
			for _, e := range exts {
				req.Vals = append(req.Vals, e.Off, e.Len)
			}
			if own != nil {
				req.Data = own
			}
			aggWorld := c.Member(p.aggList[g.agg]).ID()
			replyReqs = append(replyReqs, r.Irecv(aggWorld, repTag))
			r.Send(aggWorld, reqTag, req)
		}
		r.Waitall(reqReqs)

		// Aggregator: read the covering range once (data-sieving read)
		// straight into the requesters' buffers, and answer every request.
		if win := p.window(m); !win.Empty() {
			var need extent.Set
			var reqs []request
			for i, q := range reqReqs {
				msg := r.Wait(q)
				var exts []extent.Extent
				for j := 0; j+1 < len(msg.Vals); j += 2 {
					e := extent.Extent{Off: msg.Vals[j], Len: msg.Vals[j+1]}
					exts = append(exts, e)
					need.Add(e)
				}
				dst, _ := msg.Data.(*view)
				if dropScatter != nil && dropScatter(reqSrcs[i]) {
					dst = nil
				}
				reqs = append(reqs, request{src: reqSrcs[i], exts: exts, dst: dst})
			}
			for _, e := range selfExts {
				need.Add(e)
			}
			var sink store.Sink
			if own != nil {
				sink = &scatter{append(reqs, request{src: p.me, exts: selfExts, dst: own})}
			}
			// Each needed run is read straight into every requester's
			// buffer; a failed read hands them zeros, never stale bytes.
			span2 := mpe.StartSpan(r.Now())
			for _, run := range need.Extents() {
				if err := f.ReadContig(sink, run.Off, run.Len); err != nil {
					if sink != nil {
						store.Zero(sink, run.Off, run.Len)
					}
					if firstErr == nil {
						firstErr = err
					}
				}
			}
			span2.End(log, mpe.PhaseWrite, r.Now()) // file I/O time
			// Reply to every requester: its bytes are in its buffer.
			for _, q := range reqs {
				msg := mpi.Message{Size: wireSize(q.exts)}
				f.Stats.BytesExchanged += msg.Size
				r.Send(c.Member(q.src).ID(), repTag, msg)
			}
		}

		// The replies say the bytes are in place.
		r.Waitall(replyReqs)
		span.End(log, mpe.PhaseExchWaitall, r.Now())
	}

	// Every request was answered even after a failed read, so no rank is
	// left waiting; the error codes travel as in the write path.
	return f.exchangeErr(c, nil, firstErr, "read")
}

// request is one rank's request to an aggregator in a collective read
// round: the extents it asked for, in file order, and the buffer it lent
// for their bytes (nil without payload).
type request struct {
	src  int // the requester's rank in the communicator
	exts []extent.Extent
	dst  *view
}

// scatter is a collective read round's sink: the aggregator's store read
// hands it each run, and it copies every byte straight into the buffer of
// each requester whose extents hold it. Overlapping requests each get
// their own copy.
type scatter struct{ reqs []request }

// WriteAt implements store.Sink.
func (s *scatter) WriteAt(p []byte, off int64) {
	e := extent.Extent{Off: off, Len: int64(len(p))}
	for _, q := range s.reqs {
		if q.dst == nil {
			continue
		}
		for i := segSearch(q.exts, off); i < len(q.exts) && q.exts[i].Off < e.End(); i++ {
			ov := q.exts[i].Intersect(e)
			copyIntoSegs(p[ov.Off-off:ov.End()-off], ov, q.dst.segs, q.dst.pre, q.dst.buf)
		}
	}
}

// dropScatter, when set, makes an aggregator leave out of its scatter the
// requesters it reports. It is a test-only hook: a requester whose bytes
// never land must fail the read-back check.
var dropScatter func(src int) bool
