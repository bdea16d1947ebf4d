package adio

import (
	"fmt"
	"math"
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
// file domains instead: planRound merges the rank's sorted segments with
// the round's sorted windows, so planning costs O(log) per domain the
// rank touches plus O(1) per piece, and produces the same per-round sets
// and message pattern.
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

	// Steps 1-3: offset exchange, interleaving check, file domains.
	span := mpe.StartSpan(r.Now())
	p, err := f.plan(c, segs, f.hints.CBWrite)
	span.End(log, mpe.PhaseCalc, r.Now())
	if err != nil {
		return err
	}
	if p.indep {
		return f.WriteStrided(segs, data)
	}
	if p.fds == nil {
		// No rank has data; still synchronise error codes.
		return f.exchangeErr(nil, "write")
	}
	pre := prefixSums(segs, data)
	if p.myAgg >= 0 {
		fd := p.fds[p.myAgg]
		tr.Instant(ttk, "adio", "file_domain", int64(r.Now()), trace.I("off", fd.Off), trace.I("len", fd.Len))
	}

	// Step 4: the extended two-phase loop. The round plan is reused across
	// rounds: Alltoall does not hold the send list after it returns, and
	// every extent list is consumed within its round.
	var firstErr error
	rp := &f.round
	for m := 0; m < p.ntimes; m++ {
		tag := tagDataBase + (m & 0xffff)
		roundT0 := r.Now()
		rsp := tr.Begin(ttk, "adio", "round", int64(r.Now()))

		// What do I send to each aggregator this round?
		rp.planRound(segs, p.fds, p.aggList, p.cb, m)

		// Dissemination: every round starts with an MPI_Alltoall telling
		// each aggregator how much each process contributes.
		span = mpe.StartSpan(r.Now())
		recv := c.Alltoall(r, rp.send)
		span.End(log, mpe.PhaseShuffleA2A, r.Now())

		// Data shuffle: post receives, start sends, wait for all.
		span = mpe.StartSpan(r.Now())
		recvReqs, sendReqs, selfExts := f.postWriteRound(&p, tag, recv, rp, segs, pre, data, mExch)
		r.Waitall(sendReqs)
		r.Waitall(recvReqs)
		span.End(log, mpe.PhaseExchWaitall, r.Now())

		// Aggregator: pack the collective buffer and write the domain.
		if win := p.window(m); !win.Empty() {
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
		rsp.End(int64(r.Now()), trace.I("round", int64(m)), trace.I("ntimes", int64(p.ntimes)))
		mRoundNs.Observe(int64(r.Now() - roundT0))
	}

	// Step 5: synchronise and exchange error codes.
	return f.exchangeErr(firstErr, "write")
}

// exchangeErr is the two-phase epilogue: the ranks exchange error codes,
// and a rank whose own part succeeded reports that another's failed.
func (f *File) exchangeErr(err error, op string) error {
	r := f.rank
	span := mpe.StartSpan(r.Now())
	code := int64(0)
	if err != nil {
		code = 1
	}
	res := f.comm.Allreduce(r, []int64{code}, mpi.MaxOp)
	span.End(f.log, mpe.PhasePostWrite, r.Now())
	if res[0] != 0 && err == nil {
		err = fmt.Errorf("adio: collective %s failed on another rank", op)
	}
	return err
}

// twoPhasePlan is the prologue every two-phase driver shares (§II-A steps
// 1-3): which ranks aggregate, which file domain each one owns, and how
// many cb_buffer_size rounds cover the largest domain. The embedded
// sharedPlan is one read-only value for every rank of the call; the rest
// is this rank's own.
type twoPhasePlan struct {
	*sharedPlan
	c     *mpi.Comm
	me    int // this rank's position in c
	myAgg int // this rank's index in fds, or -1
}

// sharedPlan is the part of the prologue that is a pure function of the
// offset table every rank gathers, so the call computes it once (see
// plan).
type sharedPlan struct {
	indep   bool            // independent I/O selected instead (see plan)
	aggList []int           // ranks of c acting as aggregators, ascending
	fds     []extent.Extent // aggregator i's file domain; nil when no rank accesses anything
	cb      int64           // cb_buffer_size: bytes per aggregator per round
	ntimes  int             // rounds covering the largest domain
}

// plan runs the two-phase prologue over c for this rank's access segs:
// the Allgather of every rank's first and last offset, the global range
// and interleaving check, the aggregator placement, the driver's file
// domains and the round count. cbMode is the romio_cb_write/_read hint:
// "disable", or "automatic" with no rank's range overlapping the next
// one's, selects independent I/O and nothing else is planned. The
// aggregators of c are placed by the same rule as at open, memoized per
// communicator, so a failover epoch's survivors share one placement. A
// timed-out offset exchange returns its error.
//
// ROMIO has every process compute this summary itself. Here the first
// rank to read the completed Allgather derives it and every rank shares
// the result: it depends only on the table, c, the hints and the driver,
// which every rank of the call agrees on, so each rank's own work is
// O(log) rather than O(ranks).
func (f *File) plan(c *mpi.Comm, segs []extent.Extent, cbMode string) (twoPhasePlan, error) {
	r := f.rank
	st, end := noData, noData
	if len(segs) > 0 {
		st = segs[0].Off
		end = segs[len(segs)-1].End() - 1
	}
	drv, hints := f.driver, f.hints
	sp, err := mpi.AllgatherDerive(c, r, []int64{st, end}, func(offs [][]int64) *sharedPlan {
		return deriveSharedPlan(offs, c, drv, hints, cbMode)
	})
	if err != nil {
		return twoPhasePlan{}, err
	}
	p := twoPhasePlan{sharedPlan: sp, c: c, me: c.RankOf(r), myAgg: -1}
	if sp.fds == nil {
		return p, nil
	}
	if i := aggIndex(sp.aggList, p.me); i < len(sp.fds) {
		p.myAgg = i
	}
	if p.myAgg >= 0 {
		if buf := min64(sp.cb, sp.fds[p.myAgg].Len); buf > f.Stats.PeakBufBytes {
			f.Stats.PeakBufBytes = buf
		}
	}
	return p, nil
}

// noData is the offset a rank with nothing to access contributes to the
// plan's Allgather.
const noData = int64(-1)

// deriveSharedPlan computes the shared part of the two-phase prologue from
// the gathered (first, last) offsets of every rank of c.
func deriveSharedPlan(offs [][]int64, c *mpi.Comm, drv Driver, h *Hints, cbMode string) *sharedPlan {
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
	sp := &sharedPlan{cb: h.CBBufferSize}
	if cbMode == HintDisable || (cbMode == HintAutomatic && !interleaved) {
		sp.indep = true
		return sp
	}
	if maxEnd < minSt {
		return sp
	}
	sp.aggList = placeAggregators(c, h)
	sp.fds = drv.FileDomains(minSt, maxEnd, len(sp.aggList), h)
	for _, fd := range sp.fds {
		if nt := int((fd.Len + sp.cb - 1) / sp.cb); nt > sp.ntimes {
			sp.ntimes = nt
		}
	}
	return sp
}

// window returns the part of this rank's file domain handled in round m:
// empty when the rank aggregates nothing or its domain is done.
func (p *twoPhasePlan) window(m int) extent.Extent {
	if p.myAgg < 0 {
		return extent.Extent{}
	}
	return roundWindow(p.fds[p.myAgg], p.cb, m)
}

// postWriteRound starts a write round's data shuffle on tag. An
// aggregator posts a receive from every other rank with bytes for it
// (recv, the (src, count) pairs from the round's Alltoall); every rank
// sends its pieces (rp, grouped per aggregator) to the other aggregators.
// The pieces for this rank's own aggregator are not sent but returned as
// selfExts.
func (f *File) postWriteRound(p *twoPhasePlan, tag int, recv []int64, rp *roundPlan,
	segs []extent.Extent, pre []int64, data []byte, mExch *metrics.Counter) (recvReqs, sendReqs []*mpi.Request, selfExts []extent.Extent) {
	r, c := f.rank, p.c
	if p.myAgg >= 0 {
		for k := 0; k < len(recv); k += 2 {
			if src := int(recv[k]); src != p.me {
				recvReqs = append(recvReqs, r.Irecv(c.Member(src).ID(), tag))
			}
		}
	}
	for _, g := range rp.groups {
		exts := rp.exts(g)
		if p.aggList[g.agg] == p.me {
			selfExts = exts
			continue
		}
		msg := buildDataMsg(exts, segs, pre, data)
		f.Stats.BytesExchanged += msg.Size
		mExch.Add(msg.Size)
		sendReqs = append(sendReqs, r.Isend(c.Member(p.aggList[g.agg]).ID(), tag, msg))
	}
	return recvReqs, sendReqs, selfExts
}

// prefixSums returns the offset of each segment's bytes in the rank's
// concatenated payload, with the total last, or nil without a payload.
func prefixSums(segs []extent.Extent, data []byte) []int64 {
	if data == nil {
		return nil
	}
	pre := make([]int64, len(segs)+1)
	for i, s := range segs {
		pre[i+1] = pre[i] + s.Len
	}
	return pre
}

// roundPlan is one rank's share of a two-phase round: the pieces of its
// segments inside each aggregator's round window, grouped by aggregator in
// aggregator order, and the sparse Alltoall send list announcing their
// sizes. A File keeps one and reuses its storage from round to round and
// call to call, so its size follows the largest round the rank has
// planned, never the rank or aggregator count.
type roundPlan struct {
	groups []roundGroup
	pieces []extent.Extent // every group's pieces, group after group
	send   []int64         // (aggregator rank, bytes) pairs, ascending
}

// roundGroup is the pieces of a round bound for one aggregator.
type roundGroup struct {
	agg    int // index into the plan's aggregator list and file domains
	lo, hi int // the pieces are roundPlan.pieces[lo:hi], in file order
}

// exts returns g's pieces.
func (rp *roundPlan) exts(g roundGroup) []extent.Extent { return rp.pieces[g.lo:g.hi:g.hi] }

// planRound replans rp for round m of segs over the file domains fds
// (sorted and disjoint), whose aggregators are aggList. It sweeps the
// sorted segments and domains together: from the end of the last domain
// handled it gallops to the next segment byte, gallops to the domain
// holding that byte, gallops to the first segment reaching into the
// domain's round-m window, and clips the segments overlapping the window.
// Domains holding no byte of segs are never visited, so the cost is
// O((domains touched + pieces) × log) and independent of the rank count.
// Each group equals clipSegs(segs, window) for its aggregator; aggregators
// with no piece get no group.
func (rp *roundPlan) planRound(segs, fds []extent.Extent, aggList []int, cb int64, m int) {
	rp.groups, rp.pieces, rp.send = rp.groups[:0], rp.pieces[:0], rp.send[:0]
	x := int64(math.MinInt64) // every domain before x is planned
	for i, a := 0, 0; ; a++ {
		if i = gallopEnd(segs, i, x); i == len(segs) {
			return
		}
		if a = gallopEnd(fds, a, max(x, segs[i].Off)); a == len(fds) {
			return
		}
		x = fds[a].End()
		w := roundWindow(fds[a], cb, m)
		if w.Empty() {
			continue
		}
		if i = gallopEnd(segs, i, w.Off); i == len(segs) || segs[i].Off >= w.End() {
			continue
		}
		g := roundGroup{agg: a, lo: len(rp.pieces)}
		var bytes int64
		for k := i; k < len(segs) && segs[k].Off < w.End(); k++ {
			e := segs[k].Intersect(w)
			rp.pieces = append(rp.pieces, e)
			bytes += e.Len
		}
		g.hi = len(rp.pieces)
		rp.groups = append(rp.groups, g)
		rp.send = append(rp.send, int64(aggList[a]), bytes)
	}
}

// gallopEnd returns the index of the first extent at or after lo ending
// after off (len(exts) if none); exts must be sorted and disjoint. It
// probes lo, lo+1, lo+3, lo+7, ... and binary-searches the last stride,
// so it costs O(log distance): a sweep that moves forward a little at a
// time pays for how far it moves, not for the length of the list.
func gallopEnd(exts []extent.Extent, lo int, off int64) int {
	hi, step := lo, 1
	for hi < len(exts) && exts[hi].End() <= off {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(exts))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if exts[mid].End() > off {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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
// header to the payload bytes. The payload is allocated once, at its final
// length.
func buildDataMsg(exts []extent.Extent, segs []extent.Extent, pre []int64, data []byte) mpi.Message {
	vals := make([]int64, 0, 2*len(exts))
	var bytes int64
	for _, e := range exts {
		vals = append(vals, e.Off, e.Len)
		bytes += e.Len
	}
	var payload []byte
	if data != nil && bytes > 0 {
		payload = make([]byte, 0, bytes)
		for _, e := range exts {
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
