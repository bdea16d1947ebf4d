package adio

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// layerLabel is the metrics label shared by every ADIO series.
var layerLabel = metrics.L(metrics.KeyLayer, "adio")

// metrics returns the kernel-owned registry (nil when disabled).
func (f *File) metrics() *metrics.Registry {
	return f.rank.World().Kernel().Metrics()
}

// tagDataBase is the tag space for two-phase messages.
const tagDataBase = 1 << 27

// epochTags is what epochTag keeps in a communicator's Memo.
type epochTags struct {
	serial int   // the communicator's number, unique within its World
	epochs []int // two-phase epochs each member has started on it
}

// epochTag starts this rank's next two-phase epoch on c (a write epoch or
// a collective read) and returns the first tag of its rounds: a write's
// round m adds m mod 2^16, a read's round m adds 2(m mod 2^15) for its
// requests and one more for its replies. The tag holds c's serial above
// bit 40 and the epoch's index on c, which every member counts alike as
// collective calls run in lockstep, in bits 16-39. No two epochs share a
// tag, so a shuffle message that an aggregator gave up on at its receive
// deadline and that arrives later cannot match the receive of a later
// epoch, call or file.
func epochTag(c *mpi.Comm, r *mpi.Rank) int {
	type tagsKey struct{}
	type serialKey struct{}
	st := c.Memo(tagsKey{}, func() any {
		last := r.World().Comm().Memo(serialKey{}, func() any { return new(int) }).(*int)
		*last++
		return &epochTags{serial: *last, epochs: make([]int, c.Size())}
	}).(*epochTags)
	me := c.RankOf(r)
	st.epochs[me]++
	return tagDataBase + st.serial<<40 + ((st.epochs[me]-1)%(1<<24))<<16
}

// WriteStridedColl is ADIOI_GEN_WriteStridedColl, the collective write
// entry point (Figure 2 of the paper). segs is this rank's flattened file
// access (sorted, non-overlapping extents); data optionally carries the
// concatenated payload bytes in segment order. Payload use is
// all-or-nothing per communicator: either every rank passes real bytes
// (verification mode) or every rank passes nil (metadata-only mode);
// mixing the two writes zeros for the nil ranks' extents. The
// e10_resilient_write hint selects the failover write (coll_resilient.go).
func (f *File) WriteStridedColl(segs []extent.Extent, data []byte) error {
	total, err := validateSegs(segs)
	if err != nil {
		return err
	}
	if data != nil && int64(len(data)) != total {
		return fmt.Errorf("adio: payload length %d != segment total %d", len(data), total)
	}
	resilient := f.hints.ResilientWrite == HintEnable
	t0 := f.beginCollWrite()
	defer f.endCollWrite(t0, resilient, len(segs), total)
	own := view{segs: segs, pre: prefixSums(segs, data), buf: data}
	if resilient {
		return f.writeStridedCollResilient(&own)
	}
	return f.writeEpoch(f.comm, segs, &own, nil)
}

// beginCollWrite counts a collective write and returns its start. It
// looks up the rank's trace track, registering it as the call's span
// would at its start; endCollWrite records the span.
func (f *File) beginCollWrite() sim.Time {
	r := f.rank
	f.Stats.CollWrites++
	f.metrics().Counter("adio_coll_writes_total", layerLabel).Inc()
	r.TraceTrack(r.World().Kernel().Tracer())
	return r.Now()
}

// endCollWrite traces the collective write that began at t0 with nsegs
// segments of total bytes.
func (f *File) endCollWrite(t0 sim.Time, resilient bool, nsegs int, total int64) {
	r := f.rank
	name := "coll_write"
	if resilient {
		name = "coll_write_resilient"
	}
	tr := r.World().Kernel().Tracer()
	tr.SpanAt(r.TraceTrack(tr), "adio", name, int64(t0), int64(r.Now()),
		trace.I("segs", int64(nsegs)), trace.I("bytes", total))
}

// writeEpoch runs one extended two-phase write over c for rem, the extents
// of this rank's access still to write; own views the whole access, its
// segments and their payload. It follows §II-A: (1) all ranks exchange start/end
// offsets; (2) the interleaving check selects collective vs independent
// I/O, overridable with romio_cb_write; (3) the accessed range is split
// into file domains by the driver's partitioning strategy; (4) ntimes
// rounds of Alltoall dissemination, Isend/Irecv data shuffle,
// collective-buffer packing and WriteContig; and (5) a final Allreduce
// exchanges error codes. ROMIO precomputes the my_req/others_req maps once
// before the loop with a single walk of the flattened access list; this
// implementation plans each round from the file domains instead:
// planRound merges the rank's sorted segments with the round's sorted
// windows, so planning costs O(log) per domain the rank touches plus O(1)
// per piece, and produces the same per-round sets and message pattern.
//
// fo is nil for the plain collective write, which runs one epoch on the
// file's communicator. The failover write runs one per membership epoch
// and passes its state; coll_resilient.go says what that changes.
func (f *File) writeEpoch(c *mpi.Comm, rem []extent.Extent, own *view, fo *failover) error {
	var ep epoch // assigned field by field: a literal would take a second copy's room
	ep.c, ep.rem, ep.own, ep.fo = c, rem, own, fo
	if done, err := f.planEpoch(&ep); done {
		return err
	}
	// Step 4: the extended two-phase loop.
	for m := 0; m < ep.p.ntimes; m++ {
		if err := f.writeRound(&ep, m); err != nil {
			return err
		}
	}
	// Step 5: synchronise and exchange error codes.
	return f.exchangeErr(c, fo, ep.firstErr, "write")
}

// epoch is the state of one writeEpoch call, which its steps share. It
// lives in writeEpoch's frame, and each step runs under a frame of its
// own: a rank parks at a blocking call under the frames of the one step
// that made it, not under one frame sized for all of them.
type epoch struct {
	c        *mpi.Comm
	rem      []extent.Extent
	own      *view // this rank's access: its segments and their payload
	fo       *failover
	p        twoPhasePlan
	tag0     int // first shuffle tag of the epoch's rounds
	firstErr error

	// This round's shuffle result: the messages the aggregator received
	// and the pieces of its own access it keeps.
	msgs     []*mpi.Message
	selfExts []extent.Extent

	// Observers: only the plain write logs, traces and times its rounds.
	log      *mpe.Log
	tr       *trace.Tracer
	ttk      trace.TrackID
	mRoundNs *metrics.Histogram
	mExch    *metrics.Counter
	mRounds  *metrics.Counter
}

// planEpoch is the epoch's prologue (§II-A steps 1-3). It reports done
// when the epoch ends there, with the epoch's result: the plan failed,
// selected independent I/O, or found no data on any rank.
func (f *File) planEpoch(ep *epoch) (done bool, err error) {
	r := f.rank
	ep.tag0 = epochTag(ep.c, r)
	cbMode := f.observeEpoch(ep)
	span := mpe.StartSpan(r.Now())
	ep.p, err = f.plan(ep.c, ep.rem, cbMode)
	span.End(ep.log, mpe.PhaseCalc, r.Now())
	switch {
	case err != nil:
		if ep.fo != nil {
			err = &epochAbort{err}
		}
		return true, err
	case ep.p.indep:
		return true, f.WriteStrided(ep.own.segs, ep.own.buf)
	case ep.p.fds == nil:
		// No rank has data; still synchronise error codes.
		return true, f.exchangeErr(ep.c, ep.fo, nil, "write")
	}
	f.startRounds(ep)
	return false, nil
}

// observeEpoch arms the plain write's observers and returns its
// romio_cb_write mode; the failover write always runs collectively. It
// registers the round series before planning, so a call that falls back
// to independent I/O still reports them.
func (f *File) observeEpoch(ep *epoch) string {
	if ep.fo != nil {
		return HintEnable
	}
	mt := f.metrics()
	ep.log, ep.tr = f.log, f.rank.World().Kernel().Tracer()
	ep.mRoundNs = mt.Histogram("adio_round_ns", layerLabel)
	mt.Counter("adio_coll_rounds_total", layerLabel)
	mt.Counter("adio_exchange_bytes_total", layerLabel)
	return f.hints.CBWrite
}

// startRounds traces this rank's file domain and looks up the round
// counters.
func (f *File) startRounds(ep *epoch) {
	r := f.rank
	ep.ttk = r.TraceTrack(ep.tr)
	if ep.p.myAgg >= 0 {
		fd := ep.p.fds[ep.p.myAgg]
		ep.tr.Instant(ep.ttk, "adio", "file_domain", int64(r.Now()), trace.I("off", fd.Off), trace.I("len", fd.Len))
	}
	mt := f.metrics()
	ep.mExch = mt.Counter("adio_exchange_bytes_total", layerLabel)
	ep.mRounds = mt.Counter("adio_coll_rounds_total", layerLabel)
}

// writeRound runs round m of the two-phase loop and returns an error only
// when it ends the epoch. The round plan is reused across rounds:
// Alltoall does not hold the send list after it returns, and every extent
// list is consumed within its round.
func (f *File) writeRound(ep *epoch, m int) error {
	r := f.rank
	roundT0 := r.Now()

	// What do I send to each aggregator this round?
	f.round.planRound(ep.rem, ep.p.fds, ep.p.aggList, ep.p.cb, m)

	// Dissemination: every round starts with an MPI_Alltoall telling
	// each aggregator how much each process contributes.
	span := mpe.StartSpan(r.Now())
	recv, err := ep.c.TryAlltoall(r, f.round.send)
	span.End(ep.log, mpe.PhaseShuffleA2A, r.Now())
	if err != nil && ep.fo != nil {
		return &epochAbort{err}
	}

	code := f.shuffle(ep, recv, m)

	// Aggregator: pack and write the round's window of the domain.
	if win := ep.p.window(m); !win.Empty() && code == ackOK {
		if err := f.packAndWrite(ep, win); err != nil {
			code = ackIOErr
			ep.firstErr = cmp.Or(ep.firstErr, err)
		}
		f.Stats.CollRounds++
		ep.mRounds.Inc()
	}
	clear(ep.msgs) // a delivered message keeps its sender's record alive
	f.msgs, ep.msgs, ep.selfExts = ep.msgs[:0], nil, nil
	f.endRound(ep, m, roundT0)
	if ep.fo == nil {
		return nil
	}
	return f.ackRound(ep, code)
}

// shuffle is round m's data shuffle. An aggregator posts a receive from
// every other rank with bytes for it (the (src, count) pairs of recv);
// every rank sends its pieces for the other aggregators and keeps those
// for its own; then all wait. It leaves the received messages and the
// kept pieces in ep and returns the round's ack code. On the failover
// write a sender that died mid-round must not park the aggregator
// forever: a missed message fails the round with ackTimeout, nothing is
// written, and the round-ack sends everyone to the next epoch.
func (f *File) shuffle(ep *epoch, recv []int64, m int) int64 {
	r := f.rank
	span := mpe.StartSpan(r.Now())
	f.postShuffle(ep, recv, ep.tag0+(m&0xffff))
	r.Waitall(f.sendReqs)
	code := int64(ackOK)
	ep.msgs = f.msgs[:0]
	for _, q := range f.recvReqs {
		var msg *mpi.Message
		var err error
		if ep.fo == nil {
			msg = r.Wait(q)
		} else if msg, err = r.WaitDeadline(q, ep.fo.deadline); err != nil {
			code = ackTimeout
			break
		}
		ep.msgs = append(ep.msgs, msg)
	}
	clear(f.recvReqs)
	clear(f.sendReqs)
	f.recvReqs, f.sendReqs = f.recvReqs[:0], f.sendReqs[:0]
	span.End(ep.log, mpe.PhaseExchWaitall, r.Now())
	return code
}

// postShuffle posts the shuffle's receives (an aggregator's, from every
// other rank that sends to it) and sends under tag, appending their
// requests to the file's lists, and keeps this rank's pieces for its own
// domain in ep.
func (f *File) postShuffle(ep *epoch, recv []int64, tag int) {
	r, c, p, rp := f.rank, ep.c, &ep.p, &f.round
	if p.myAgg >= 0 {
		for k := 0; k < len(recv); k += 2 {
			if src := int(recv[k]); src != p.me {
				f.recvReqs = append(f.recvReqs, r.Irecv(c.Member(src).ID(), tag))
			}
		}
	}
	for _, g := range rp.groups {
		exts := rp.exts(g)
		if p.aggList[g.agg] == p.me {
			ep.selfExts = exts
			continue
		}
		msg := exchangeMsg(exts, ep.own)
		f.Stats.BytesExchanged += msg.Size
		ep.mExch.Add(msg.Size)
		f.sendReqs = append(f.sendReqs, r.Isend(c.Member(p.aggList[g.agg]).ID(), tag, msg))
	}
	if shuffleSent != nil {
		shuffleSent(ep.own.buf)
	}
}

// shuffleSent, when set, sees a rank's payload right after the rank has
// posted a round's shuffle messages. It is a test-only hook: a test clears
// the payload to check that the byte check catches a sender that changes
// its buffer while the aggregators have yet to copy from it.
var shuffleSent func(data []byte)

// endRound traces round m, which started at t0, and times it.
func (f *File) endRound(ep *epoch, m int, t0 sim.Time) {
	now := f.rank.Now()
	ep.tr.SpanAt(ep.ttk, "adio", "round", int64(t0), int64(now),
		trace.I("round", int64(m)), trace.I("ntimes", int64(ep.p.ntimes)))
	ep.mRoundNs.Observe(int64(now - t0))
}

// ackRound is the failover write's round-ack: senders release this
// round's extents only when every surviving aggregator confirms the round
// landed. code is this rank's status for the round.
func (f *File) ackRound(ep *epoch, code int64) error {
	switch res, err := ep.c.TryAllreduce(f.rank, []int64{code}, mpi.MaxOp); {
	case err != nil:
		return &epochAbort{err}
	case res[0] == ackTimeout:
		return &epochAbort{mpi.ErrRecvTimeout}
	case res[0] == ackIOErr:
		return cmp.Or(ep.firstErr, errors.New("adio: collective write failed on another rank"))
	}
	for _, e := range f.round.pieces {
		ep.fo.acked.Add(e)
	}
	return nil
}

// exchangeErr is the two-phase epilogue over c: the ranks exchange error
// codes, and a rank whose own part succeeded reports that another's
// failed. On the failover write (fo non-nil) a timed-out exchange aborts
// the epoch and is not logged; the plain drivers go on with the partial
// result, as the plain Allreduce does.
func (f *File) exchangeErr(c *mpi.Comm, fo *failover, err error, op string) error {
	r := f.rank
	span := mpe.StartSpan(r.Now())
	code := int64(ackOK)
	if err != nil {
		code = ackIOErr
	}
	res, terr := c.TryAllreduce(r, []int64{code}, mpi.MaxOp)
	if fo == nil {
		span.End(f.log, mpe.PhasePostWrite, r.Now())
	} else if terr != nil {
		return &epochAbort{terr}
	}
	if res[0] != ackOK && err == nil {
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
// aggregators of c are placed by placeAggregators, memoized per
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
		if buf := min(sp.cb, sp.fds[p.myAgg].Len); buf > f.Stats.PeakBufBytes {
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

// roundWindow returns the sub-domain of fd written in round m with a
// collective buffer of cb bytes.
func roundWindow(fd extent.Extent, cb int64, m int) extent.Extent {
	off := fd.Off + int64(m)*cb
	if off >= fd.End() {
		return extent.Extent{}
	}
	return extent.Extent{Off: off, Len: min(cb, fd.End()-off)}
}

// exchangeMsg builds the shuffle message that carries the bytes of exts
// from src, this rank's access. It lists the extents in Vals as (off, len)
// pairs, and its Size is their wireSize. When src has a buffer, the
// payload is a view of the bytes in it.
func exchangeMsg(exts []extent.Extent, src *view) mpi.Message {
	var m mpi.Message
	m.Vals = make([]int64, 0, 2*len(exts))
	for _, e := range exts {
		m.Vals = append(m.Vals, e.Off, e.Len)
	}
	m.Size = wireSize(exts)
	if bytes := m.Size - 16*int64(len(exts)); src.buf != nil && bytes > 0 {
		v := *src
		v.n = bytes
		m.Data = &v
	}
	return m
}

// wireSize is the wire size of a shuffle message or read reply that
// carries the bytes of exts: the bytes plus a 16-byte header per extent.
func wireSize(exts []extent.Extent) int64 {
	var size int64
	for _, e := range exts {
		size += e.Len + 16
	}
	return size
}

// view is a rank's buffer lent to a two-phase message: buf holds the bytes
// of file extents segs in segment order, so byte off of segs[i] lies at
// buf[pre[i]+off-segs[i].Off]. A shuffle message views the sender's
// payload and counts n, the bytes of the extents it names in Vals, which
// the aggregator's store write copies straight out of buf. A read request
// views the requester's destination with n zero: the aggregator's store
// read copies the bytes of the extents it names straight into buf. A
// collective write's own view of the rank's access, with n unset, is what
// its shuffle messages copy. DESIGN.md (adio) gives the rules that keep
// buf valid while it is lent.
type view struct {
	n    int64
	segs []extent.Extent
	pre  []int64
	buf  []byte
}

// Len implements mpi.Payload.
func (v *view) Len() int64 { return v.n }

// packAndWrite charges the memory-copy cost of packing the round's
// received and local contributions for win, as ROMIO packs them into its
// collective buffer, and writes every contiguous covered run via
// WriteContig (holes are skipped, as ROMIO does when hole detection shows
// no read-modify-write is needed). Nothing is staged: the store write
// reads each byte straight from the buffer of the rank that sent it (see
// roundSource).
func (f *File) packAndWrite(ep *epoch, win extent.Extent) error {
	r := f.rank
	runs, packed, payload := ep.cover()

	// Packing cost: one memory copy of the collective buffer contents.
	span := mpe.StartSpan(r.Now())
	r.Node().LocalCopy(r.Proc(), packed)
	span.End(f.log, mpe.PhasePack, r.Now())
	var src store.Source
	if payload {
		src = &roundSource{msgs: ep.msgs, self: ep.selfExts, own: ep.own}
	}
	return f.writeRuns(win, runs, packed, src)
}

// cover returns the round's covered runs, the union of the pieces the
// aggregator received and kept, with the bytes packed and whether any
// piece carries payload.
func (ep *epoch) cover() (runs []extent.Extent, packed int64, payload bool) {
	var cover extent.Set
	payload = ep.own.buf != nil && len(ep.selfExts) > 0
	for _, m := range ep.msgs {
		payload = payload || m.Data != nil
		for i := 0; i+1 < len(m.Vals); i += 2 {
			cover.Add(extent.Extent{Off: m.Vals[i], Len: m.Vals[i+1]})
			packed += m.Vals[i+1]
		}
	}
	for _, e := range ep.selfExts {
		cover.Add(e)
		packed += e.Len
	}
	return cover.Extents(), packed, payload
}

// writeRuns writes the covered runs of win from src, nil when the round
// carries no payload.
func (f *File) writeRuns(win extent.Extent, runs []extent.Extent, packed int64, src store.Source) error {
	r := f.rank
	span := mpe.StartSpan(r.Now())
	defer func() { span.End(f.log, mpe.PhaseWrite, r.Now()) }()

	// Hole handling, as in ADIOI_Exch_and_write: when the window is
	// fragmented but mostly covered, read-modify-write the whole window
	// once instead of issuing one write per fragment. Sparse coverage,
	// or any under a hook (sievesHoles), writes the runs individually.
	if len(runs) > 1 && packed*2 >= win.Len && f.sievesHoles() {
		f.Stats.SievedWrites++
		return f.sieve(win, src)
	}
	var err error
	for _, run := range runs {
		if werr := f.WriteContig(src, run.Off, run.Len); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// sieve writes win whole by read-modify-write: it reads the window,
// overlays the round's pieces from src and writes the window back. With a
// payload the window's bytes stay in a pool buffer taken and returned
// within the call, the only window-sized buffer of the two-phase path.
func (f *File) sieve(win extent.Extent, src store.Source) error {
	var b []byte
	if src != nil {
		pool := f.rank.World().Pool()
		b = pool.Get(int(win.Len))
		defer pool.Put(b)
	}
	buf := store.Bytes(b, win.Off)
	if err := f.ReadContig(buf, win.Off, win.Len); err != nil {
		return err
	}
	if src != nil {
		src.ReadAt(b, win.Off)
	}
	return f.WriteContig(buf, win.Off, win.Len)
}

// roundSource is a write round's payload as the aggregator's store writes
// read it: the epoch's received messages and kept pieces. A received
// piece's bytes come from the view its sender lent, a kept one's from this
// rank's own payload, and a metadata-only piece's are zeros: the mix of
// payload and metadata-only ranks WriteStridedColl allows. Where pieces
// overlap, a later message wins over an earlier one and a kept piece over
// both.
type roundSource struct {
	msgs []*mpi.Message
	self []extent.Extent
	own  *view
}

// ReadAt implements store.Source. Bytes of p in no piece keep what p
// holds.
func (s *roundSource) ReadAt(p []byte, off int64) {
	e := extent.Extent{Off: off, Len: int64(len(p))}
	for _, m := range s.msgs {
		v, _ := m.Data.(*view)
		for i := pairSearch(m.Vals, off); i+1 < len(m.Vals) && m.Vals[i] < e.End(); i += 2 {
			v.copyPiece(p, e, extent.Extent{Off: m.Vals[i], Len: m.Vals[i+1]})
		}
	}
	for i := segSearch(s.self, off); i < len(s.self) && s.self[i].Off < e.End(); i++ {
		s.own.copyPiece(p, e, s.self[i])
	}
}

// copyPiece copies the bytes of piece that lie in e from v into p, which
// holds e; a nil v, or one without a buffer, copies zeros.
func (v *view) copyPiece(p []byte, e, piece extent.Extent) {
	ov := piece.Intersect(e)
	dst := p[ov.Off-e.Off : ov.End()-e.Off]
	if v == nil || v.buf == nil {
		clear(dst)
	} else {
		copyFromSegs(dst, ov, v.segs, v.pre, v.buf)
	}
}

// pairSearch returns the index in vals, a list of (off, len) pairs sorted
// and disjoint, of the first pair ending after off (len(vals) if none).
func pairSearch(vals []int64, off int64) int {
	return 2 * sort.Search(len(vals)/2, func(i int) bool { return vals[2*i]+vals[2*i+1] > off })
}

// copyFromSegs copies the bytes of file extent e from data, the rank's
// payload in segment order (pre as from prefixSums), into dst, which holds
// e from its first byte. Bytes of e in no segment keep what dst holds.
func copyFromSegs(dst []byte, e extent.Extent, segs []extent.Extent, pre []int64, data []byte) {
	for i := segSearch(segs, e.Off); i < len(segs) && segs[i].Off < e.End(); i++ {
		ov := segs[i].Intersect(e)
		at := pre[i] + ov.Off - segs[i].Off
		copy(dst[ov.Off-e.Off:ov.End()-e.Off], data[at:at+ov.Len])
	}
}

// copyIntoSegs is the reverse of copyFromSegs: it copies the bytes of file
// extent e from src, which holds e from its first byte, into buf, the
// rank's buffer in segment order. Bytes of e in no segment are dropped.
func copyIntoSegs(src []byte, e extent.Extent, segs []extent.Extent, pre []int64, buf []byte) {
	for i := segSearch(segs, e.Off); i < len(segs) && segs[i].Off < e.End(); i++ {
		ov := segs[i].Intersect(e)
		at := pre[i] + ov.Off - segs[i].Off
		copy(buf[at:at+ov.Len], src[ov.Off-e.Off:ov.End()-e.Off])
	}
}
