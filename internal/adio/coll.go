package adio

import (
	"fmt"
	"sort"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/store"
	"repro/internal/trace"
)

// layerLabel is the metrics label shared by every ADIO series.
var layerLabel = metrics.L(metrics.KeyLayer, "adio")

// metrics returns the kernel-owned registry (nil when disabled).
func (f *File) metrics() *metrics.Registry {
	return f.rank.World().Kernel().Metrics()
}

// tagDataBase is the tag space for two-phase data-exchange messages.
const tagDataBase = 1 << 27

// WriteStridedColl is ADIOI_GEN_WriteStridedColl, the collective write
// entry point (Figure 2 of the paper). segs is this rank's flattened file
// access (sorted, non-overlapping extents); data optionally carries the
// concatenated payload bytes in segment order. Payload use is
// all-or-nothing per communicator: either every rank passes real bytes
// (verification mode) or every rank passes nil (metadata-only mode);
// mixing the two writes zeros for the nil ranks' extents.
//
// The implementation follows §II-A: (1) all ranks exchange start/end
// offsets; (2) the interleaving check selects collective vs independent
// I/O, overridable with romio_cb_write; (3) the accessed range is split
// into file domains by the driver's partitioning strategy; (4) the
// extended two-phase loop runs ntimes rounds of Alltoall dissemination,
// Isend/Irecv data shuffle, collective-buffer packing and WriteContig; and
// (5) a final Allreduce exchanges error codes. ROMIO precomputes the
// my_req/others_req maps once before the loop with a single walk of the
// flattened access list; this implementation plans each round from the
// file domains instead: clipSegs binary-searches the rank's sorted
// segments for each aggregator's round window and walks only the
// overlapping ones, so planning costs O(log segs + overlaps) per window
// and produces the same per-round sets and message pattern.
func (f *File) WriteStridedColl(segs []extent.Extent, data []byte) error {
	r, c, log := f.rank, f.comm, f.log
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if data != nil && int64(len(data)) != total {
		return fmt.Errorf("adio: payload length %d != segment total %d", len(data), total)
	}
	if f.resilientEnabled() {
		return f.writeStridedCollResilient(segs, data, total)
	}
	f.Stats.CollWrites++

	mt := f.metrics()
	mt.Counter("adio_coll_writes_total", layerLabel).Inc()
	mRoundNs := mt.Histogram("adio_round_ns", layerLabel)
	mRounds := mt.Counter("adio_coll_rounds_total", layerLabel)
	mExch := mt.Counter("adio_exchange_bytes_total", layerLabel)

	tr := r.World().Kernel().Tracer()
	ttk := r.TraceTrack(tr)
	if tr != nil {
		csp := tr.Begin(ttk, "adio", "coll_write", int64(r.Now()))
		defer func() {
			csp.End(int64(r.Now()), trace.I("segs", int64(len(segs))), trace.I("bytes", total))
		}()
	}

	// Step 1: exchange access-pattern information (start and end offsets).
	span := mpe.StartSpan(r.Now())
	const noData = int64(-1)
	st, end := noData, noData
	if len(segs) > 0 {
		st = segs[0].Off
		end = segs[len(segs)-1].End() - 1
	}
	offs := c.Allgather(r, []int64{st, end})

	// Step 2: interleaving check over adjacent ranks, global range.
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

	if f.hints.CBWrite == HintDisable || (f.hints.CBWrite == HintAutomatic && !interleaved) {
		return f.WriteStrided(segs, data)
	}
	if maxEnd < minSt {
		// No rank has data; still synchronise error codes.
		span = mpe.StartSpan(r.Now())
		c.Allreduce(r, []int64{0}, mpi.MaxOp)
		span.End(log, mpe.PhasePostWrite, r.Now())
		return nil
	}

	// Step 3: file domains, per the driver's partitioning strategy.
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
	if data != nil {
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
		if buf := min64(cb, myFD.Len); buf > f.Stats.PeakBufBytes {
			f.Stats.PeakBufBytes = buf
		}
		tr.Instant(ttk, "adio", "file_domain", int64(r.Now()),
			trace.I("off", myFD.Off), trace.I("len", myFD.Len))
	}

	// Step 4: the extended two-phase loop. The per-round plan vectors are
	// reused across rounds: Alltoall does not hold the send vector after
	// it returns, and every extent list is consumed within its round.
	var firstErr error
	sendExts := make([][]extent.Extent, naggs)
	sendSizes := make([]int64, c.Size())
	for m := 0; m < ntimes; m++ {
		tag := tagDataBase + (m & 0xffff)
		roundT0 := r.Now()
		rsp := tr.Begin(ttk, "adio", "round", int64(r.Now()))

		// What do I send to each aggregator this round?
		planRound(sendExts, sendSizes, segs, fds, f.aggList, cb, m)

		// Dissemination: every round starts with an MPI_Alltoall telling
		// each aggregator how much each process contributes.
		span = mpe.StartSpan(r.Now())
		recvSizes := c.Alltoall(r, sendSizes)
		span.End(log, mpe.PhaseShuffleA2A, r.Now())

		// Data shuffle: post receives, start sends, wait for all.
		span = mpe.StartSpan(r.Now())
		var recvReqs []*mpi.Request
		if amAgg {
			for src := 0; src < c.Size(); src++ {
				if src == me || recvSizes[src] == 0 {
					continue
				}
				recvReqs = append(recvReqs, r.Irecv(c.Member(src).ID(), tag))
			}
		}
		var sendReqs []*mpi.Request
		var selfExts []extent.Extent
		for a := 0; a < naggs; a++ {
			if len(sendExts[a]) == 0 {
				continue
			}
			if f.aggList[a] == me {
				selfExts = sendExts[a]
				continue
			}
			msg := buildDataMsg(sendExts[a], segs, pre, data)
			f.Stats.BytesExchanged += msg.Size
			mExch.Add(msg.Size)
			sendReqs = append(sendReqs, r.Isend(c.Member(f.aggList[a]).ID(), tag, msg))
		}
		r.Waitall(sendReqs)
		r.Waitall(recvReqs)
		span.End(log, mpe.PhaseExchWaitall, r.Now())

		// Aggregator: pack the collective buffer and write the domain.
		if amAgg {
			if win := roundWindow(myFD, cb, m); !win.Empty() {
				var msgs []*mpi.Message
				for _, q := range recvReqs {
					msgs = append(msgs, r.Wait(q))
				}
				if err := f.packAndWrite(win, msgs, selfExts, segs, pre, data); err != nil && firstErr == nil {
					firstErr = err
				}
				f.Stats.CollRounds++
				mRounds.Inc()
			}
		}
		rsp.End(int64(r.Now()), trace.I("round", int64(m)), trace.I("ntimes", int64(ntimes)))
		mRoundNs.Observe(int64(r.Now() - roundT0))
	}

	// Step 5: synchronise and exchange error codes.
	span = mpe.StartSpan(r.Now())
	code := int64(0)
	if firstErr != nil {
		code = 1
	}
	res := c.Allreduce(r, []int64{code}, mpi.MaxOp)
	span.End(log, mpe.PhasePostWrite, r.Now())
	if res[0] != 0 && firstErr == nil {
		firstErr = fmt.Errorf("adio: collective write failed on another rank")
	}
	return firstErr
}

// planRound fills exts[a] with the parts of segs inside aggregator a's
// round-m window and sizes[aggList[a]] with their byte count, reusing the
// slices' storage from the previous round.
func planRound(exts [][]extent.Extent, sizes []int64, segs, fds []extent.Extent, aggList []int, cb int64, m int) {
	clear(sizes)
	for a := range exts {
		exts[a] = clipSegs(exts[a][:0], segs, roundWindow(fds[a], cb, m))
		for _, e := range exts[a] {
			sizes[aggList[a]] += e.Len
		}
	}
}

// segSearch returns the index of the first segment ending after off
// (len(segs) if none). segs must be sorted and non-overlapping, as
// validateSegs and extent.Set.Gaps guarantee.
func segSearch(segs []extent.Extent, off int64) int {
	return sort.Search(len(segs), func(i int) bool { return segs[i].End() > off })
}

// clipSegs appends to dst the non-empty intersections of segs with win, in
// order. It binary-searches the first candidate and walks only the
// segments that overlap win, so the cost is O(log len(segs) + overlaps).
func clipSegs(dst, segs []extent.Extent, win extent.Extent) []extent.Extent {
	if win.Empty() {
		return dst
	}
	for i := segSearch(segs, win.Off); i < len(segs) && segs[i].Off < win.End(); i++ {
		dst = append(dst, segs[i].Intersect(win))
	}
	return dst
}

// segIndexOf locates the segment containing e, which never spans two
// segments by construction.
func segIndexOf(segs []extent.Extent, e extent.Extent) int {
	i := segSearch(segs, e.Off)
	if i == len(segs) || !segs[i].Covers(e) {
		panic(fmt.Sprintf("adio: extent %v not within any segment", e))
	}
	return i
}

// roundWindow returns the sub-domain of fd written in round m with a
// collective buffer of cb bytes.
func roundWindow(fd extent.Extent, cb int64, m int) extent.Extent {
	off := fd.Off + int64(m)*cb
	if off >= fd.End() {
		return extent.Extent{}
	}
	return extent.Extent{Off: off, Len: min64(cb, fd.End()-off)}
}

// buildDataMsg encodes extents (and payload, when present) into a shuffle
// message. Vals carries (off, len) pairs; Size adds a 16-byte per-extent
// header to the payload bytes.
func buildDataMsg(exts []extent.Extent, segs []extent.Extent, pre []int64, data []byte) mpi.Message {
	vals := make([]int64, 0, 2*len(exts))
	var payload []byte
	var bytes int64
	for _, e := range exts {
		vals = append(vals, e.Off, e.Len)
		bytes += e.Len
		if data != nil {
			payload = append(payload, segPayload(e, segs, pre, data)...)
		}
	}
	return mpi.Message{Vals: vals, Data: payload, Size: bytes + 16*int64(len(exts))}
}

// segPayload extracts the bytes of e (which lies within one segment) from
// the rank's concatenated payload.
func segPayload(e extent.Extent, segs []extent.Extent, pre []int64, data []byte) []byte {
	i := segIndexOf(segs, e)
	start := pre[i] + (e.Off - segs[i].Off)
	return data[start : start+e.Len]
}

// packAndWrite fills the collective buffer with the received and local
// contributions for win, charges the memory-copy cost, and writes every
// contiguous covered run via WriteContig (holes are skipped, as ROMIO does
// when hole detection shows no read-modify-write is needed).
func (f *File) packAndWrite(win extent.Extent, msgs []*mpi.Message, selfExts []extent.Extent,
	segs []extent.Extent, pre []int64, data []byte) error {
	r := f.rank
	var cover extent.Set
	var scratch store.Store
	var packed int64

	addPiece := func(e extent.Extent, b []byte) {
		cover.Add(e)
		packed += e.Len
		if b != nil {
			if scratch == nil {
				scratch = store.NewMem()
			}
			scratch.WriteAt(b, e.Off, e.Len)
		}
	}
	for _, m := range msgs {
		var cursor int64
		for i := 0; i+1 < len(m.Vals); i += 2 {
			e := extent.Extent{Off: m.Vals[i], Len: m.Vals[i+1]}
			var b []byte
			if m.Data != nil {
				b = m.Data[cursor : cursor+e.Len]
			}
			cursor += e.Len
			addPiece(e, b)
		}
	}
	for _, e := range selfExts {
		var b []byte
		if data != nil {
			b = segPayload(e, segs, pre, data)
		}
		addPiece(e, b)
	}

	// Packing cost: one memory copy of the collective buffer contents.
	span := mpe.StartSpan(r.Now())
	r.Node().LocalCopy(r.Proc(), packed)
	span.End(f.log, mpe.PhasePack, r.Now())

	span = mpe.StartSpan(r.Now())
	defer func() { span.End(f.log, mpe.PhaseWrite, r.Now()) }()

	runs := cover.Extents()
	// Hole handling, as in ADIOI_Exch_and_write: when the window is
	// fragmented but mostly covered, read-modify-write the whole window
	// once instead of issuing one write per fragment. Sparse coverage
	// writes the runs individually.
	if len(runs) > 1 && packed*2 >= win.Len {
		f.Stats.SievedWrites++
		var wd []byte
		if scratch != nil {
			wd = make([]byte, win.Len)
		}
		if err := f.ReadContig(wd, win.Off, win.Len); err != nil {
			return err
		}
		if scratch != nil {
			for _, run := range runs {
				run = run.Intersect(win)
				if run.Empty() {
					continue
				}
				scratch.ReadAt(wd[run.Off-win.Off:run.Off-win.Off+run.Len], run.Off)
			}
		}
		return f.WriteContig(wd, win.Off, win.Len)
	}
	var err error
	for _, run := range runs {
		run = run.Intersect(win)
		if run.Empty() {
			continue
		}
		var rd []byte
		if scratch != nil {
			rd = make([]byte, run.Len)
			scratch.ReadAt(rd, run.Off)
		}
		if werr := f.WriteContig(rd, run.Off, run.Len); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
