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

	// Offset exchange and interleaving check, as in the write path.
	span := mpe.StartSpan(r.Now())
	const noData = int64(-1)
	st, end := noData, noData
	if len(segs) > 0 {
		st = segs[0].Off
		end = segs[len(segs)-1].End() - 1
	}
	offs := c.Allgather(r, []int64{st, end})
	minSt, maxEnd := int64(-1), int64(-1)
	interleaved := false
	prevEnd, hasPrev := int64(-1), false
	for _, o := range offs {
		if o[0] == noData {
			continue
		}
		if minSt == -1 || o[0] < minSt {
			minSt = o[0]
		}
		if o[1] > maxEnd {
			maxEnd = o[1]
		}
		if hasPrev && o[0] < prevEnd {
			interleaved = true
		}
		prevEnd, hasPrev = o[1], true
	}
	span.End(log, mpe.PhaseCalc, r.Now())

	if f.hints.CBRead == HintDisable || (f.hints.CBRead == HintAutomatic && !interleaved) {
		return f.ReadStrided(segs, buf)
	}
	if maxEnd < minSt {
		c.Allreduce(r, []int64{0}, mpi.MaxOp)
		return nil
	}

	fds := f.driver.FileDomains(minSt, maxEnd, len(f.aggList), f.hints)
	naggs := len(fds)
	cb := f.hints.CBBufferSize
	ntimes := 0
	for _, fd := range fds {
		if nt := int((fd.Len + cb - 1) / cb); nt > ntimes {
			ntimes = nt
		}
	}

	var pre []int64
	if buf != nil {
		pre = make([]int64, len(segs)+1)
		for i, s := range segs {
			pre[i+1] = pre[i] + s.Len
		}
	}

	me := c.RankOf(r)
	amAgg := f.myAgg >= 0 && f.myAgg < naggs
	var myFD extent.Extent
	if amAgg {
		myFD = fds[f.myAgg]
		if b := min64(cb, myFD.Len); b > f.Stats.PeakBufBytes {
			f.Stats.PeakBufBytes = b
		}
	}
	payload := buf != nil

	wantExts := make([][]extent.Extent, naggs)
	wantSizes := make([]int64, c.Size())
	for m := 0; m < ntimes; m++ {
		reqTag := tagReadBase + 2*(m&0x7fff)
		repTag := reqTag + 1

		// What do I want from each aggregator this round?
		planRound(wantExts, wantSizes, segs, fds, f.aggList, cb, m)

		span = mpe.StartSpan(r.Now())
		reqSizes := c.Alltoall(r, wantSizes)
		span.End(log, mpe.PhaseShuffleA2A, r.Now())

		span = mpe.StartSpan(r.Now())
		// Aggregators receive the extent requests.
		var reqReqs []*mpi.Request
		var reqSrcs []int
		if amAgg {
			for src := 0; src < c.Size(); src++ {
				if src == me || reqSizes[src] == 0 {
					continue
				}
				reqReqs = append(reqReqs, r.Irecv(c.Member(src).ID(), reqTag))
				reqSrcs = append(reqSrcs, src)
			}
		}
		// Send extent requests; post receives for the replies.
		var replyReqs []*mpi.Request
		var replyAggs []int
		var selfExts []extent.Extent
		for a := 0; a < naggs; a++ {
			if len(wantExts[a]) == 0 {
				continue
			}
			if f.aggList[a] == me {
				selfExts = wantExts[a]
				continue
			}
			vals := make([]int64, 0, 2*len(wantExts[a]))
			for _, e := range wantExts[a] {
				vals = append(vals, e.Off, e.Len)
			}
			aggWorld := c.Member(f.aggList[a]).ID()
			replyReqs = append(replyReqs, r.Irecv(aggWorld, repTag))
			replyAggs = append(replyAggs, a)
			r.Send(aggWorld, reqTag, mpi.Message{Vals: vals})
		}
		r.Waitall(reqReqs)

		// Aggregator: read the covering range once (data-sieving read) and
		// answer every request.
		if amAgg {
			win := roundWindow(myFD, cb, m)
			if !win.Empty() {
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
					f.ReadContig(rd, run.Off, run.Len)
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
		}

		// Collect the replies and place them into the caller's buffer.
		r.Waitall(replyReqs)
		for i, q := range replyReqs {
			msg := r.Wait(q)
			if !payload {
				continue
			}
			var cursor int64
			for _, e := range wantExts[replyAggs[i]] {
				copyIntoSegs(msg.Data[cursor:cursor+e.Len], e, segs, pre, buf)
				cursor += e.Len
			}
		}
		span.End(log, mpe.PhaseExchWaitall, r.Now())
	}

	span = mpe.StartSpan(r.Now())
	c.Allreduce(r, []int64{0}, mpi.MaxOp)
	span.End(log, mpe.PhasePostWrite, r.Now())
	return nil
}

// buildReadReply packs the bytes of exts (from the aggregator's scratch
// buffer) into a reply message.
func buildReadReply(exts []extent.Extent, scratch store.Store) mpi.Message {
	var bytes int64
	var payload []byte
	for _, e := range exts {
		bytes += e.Len
		if scratch != nil {
			b := make([]byte, e.Len)
			scratch.ReadAt(b, e.Off)
			payload = append(payload, b...)
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
