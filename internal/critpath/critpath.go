// Package critpath is a deterministic critical-path analyzer and run-timeline
// builder for the simulated cluster's event traces (internal/trace).
//
// Analyze walks the recorded trace *backwards* from the instant that bounds
// virtual wall time, following the blocking chain: whenever the rank on the
// path resumed because a traced point-to-point message arrived, the path jumps
// to the sender at the send instant; otherwise the interval back to the
// previous same-track breakpoint is attributed by the innermost span covering
// it. The result partitions [0, wall] into contiguous segments, so the
// attributed nanoseconds sum to the virtual wall time exactly — an invariant
// the chaos `critpath_consistency` oracle re-checks on every run.
//
// The analysis is post-hoc: it only reads the tracer, so enabling it cannot
// perturb virtual time, golden traces, or scale digests.
package critpath

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Category names one cause of time on the critical path.
type Category string

// The attribution categories (the terms of the paper's Eq. 1, plus the
// degraded-mode and service-mode extensions).
const (
	CatCompute    Category = "compute"            // emulated compute / uncovered run time
	CatShuffle    Category = "shuffle_comms"      // two-phase shuffle + collective waits
	CatRetransmit Category = "retransmit_stall"   // comms waits overlapping dropped-message windows
	CatLockWait   Category = "lock_wait"          // tenant admission / capacity stalls
	CatNVMWrite   Category = "nvm_cache_write"    // write phase absorbed by the NVM cache
	CatSyncFlush  Category = "sync_flush"         // non-hidden cache synchronisation
	CatPFSWrite   Category = "pfs_write"          // write phase / sync chunks hitting the PFS
	CatFailover   Category = "failover_recompute" // crash recovery + resilient-write re-epochs
	CatOther      Category = "other"              // covered, but by no attributable layer
)

// Categories lists every category in stable render order.
var Categories = []Category{
	CatCompute, CatShuffle, CatRetransmit, CatLockWait,
	CatNVMWrite, CatSyncFlush, CatPFSWrite, CatFailover, CatOther,
}

// dropGraceNs extends each dropped-message window: a receiver stalls past the
// drop instant until the sender's retransmit lands, which the reliable layer
// paces at 10ms doubling to an 80ms cap (backoffCap in internal/mpi). Two capped
// backoffs bound the common case.
const dropGraceNs = int64(160_000_000)

// Share is one category's total on the critical path.
type Share struct {
	Category Category `json:"category"`
	Ns       int64    `json:"ns"`
	Segments int      `json:"segments"`
}

// Segment is one contiguous attributed interval of the path.
type Segment struct {
	Track    string   `json:"track"`
	FromNs   int64    `json:"from_ns"`
	ToNs     int64    `json:"to_ns"`
	Category Category `json:"category"`
	Via      string   `json:"via,omitempty"` // innermost span name, or "p2p" for message edges
}

// Edge is one cross-rank message hop the path followed (sender at SendNs to
// receiver at RecvNs). ID is the trace async-span id, so every edge can be
// checked against the trace.
type Edge struct {
	ID     uint64 `json:"id"`
	From   string `json:"from"`
	To     string `json:"to"`
	SendNs int64  `json:"send_ns"`
	RecvNs int64  `json:"recv_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Straggler ranks one track by its time on the critical path.
type Straggler struct {
	Track    string   `json:"track"`
	OnPathNs int64    `json:"on_path_ns"`
	Top      Category `json:"top_category"`
}

// WhatIf is one Eq.-1-style estimate: scale a category's on-path time and
// report the wall-time saving. It is a lower bound — shrinking the path can
// expose a different chain.
type WhatIf struct {
	Scenario        string   `json:"scenario"`
	Category        Category `json:"category"`
	FactorPct       int      `json:"factor_pct"` // 50 = 2x faster, 0 = eliminated
	SavedNs         int64    `json:"saved_ns"`
	NewWallNs       int64    `json:"new_wall_ns"`
	ReductionPctX10 int64    `json:"reduction_pct_x10"`
}

// ReportSchema versions the critical-path report; its Markdown header names it.
const ReportSchema = "e10critpath/v1"

// Report is one run's critical-path analysis.
type Report struct {
	Schema       string      `json:"schema"`
	WallNs       int64       `json:"wall_ns"`
	AttributedNs int64       `json:"attributed_ns"`
	StartTrack   string      `json:"start_track"`
	Shares       []Share     `json:"shares"`
	Segments     int         `json:"segments"`
	TopSegments  []Segment   `json:"top_segments,omitempty"`
	Edges        []Edge      `json:"edges,omitempty"`
	Stragglers   []Straggler `json:"stragglers,omitempty"`
	WhatIf       []WhatIf    `json:"what_if,omitempty"`
}

// spanRef is one span on a track, in analysis form.
type spanRef struct {
	start, end int64
	cat, name  string
	blocked    bool
	seq        int // append order, for deterministic tie-breaks
}

// pairRef is one completed p2p async pair.
type pairRef struct {
	id                   uint64
	beginTrack, endTrack trace.TrackID
	beginTs, endTs       int64
	bytes                int64
}

// trackData is the per-track index the backward walk consults.
type trackData struct {
	spans      []spanRef // sorted by (end, seq)
	breaks     []int64   // sorted unique breakpoints (span starts/ends, pair ends)
	pairs      []pairRef // delivered pairs ending here, sorted by (endTs, id)
	blockedEnd []int64   // sorted end times of blocked spans
	stallTs    map[int64]bool
	failTs     []int64 // sorted failover_epoch instant times
	cacheWrite bool
	maxEnd     int64
}

type analysis struct {
	tr     *trace.Tracer
	tracks map[trace.TrackID]*trackData
	drops  []int64 // merged drop windows, flattened [s0,e0,s1,e1,...]
}

func (a *analysis) track(id trace.TrackID) *trackData {
	td := a.tracks[id]
	if td == nil {
		td = &trackData{}
		a.tracks[id] = td
	}
	return td
}

// rankOf parses the rank index out of a "rank %d" track name, or -1.
func rankOf(name string) int {
	var r int
	if n, err := fmt.Sscanf(name, "rank %d", &r); n == 1 && err == nil {
		return r
	}
	return -1
}

// build indexes the trace once.
func build(tr *trace.Tracer) *analysis {
	a := &analysis{tr: tr, tracks: make(map[trace.TrackID]*trackData)}
	type openPair struct {
		track trace.TrackID
		ts    int64
		bytes int64
		dst   int64
	}
	open := make(map[uint64]openPair)
	var dropIv [][2]int64
	for i, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindSpan:
			td := a.track(ev.Track)
			end := ev.Start + ev.Dur
			blocked := ev.Cat == "sim" && ev.Name == "blocked"
			td.spans = append(td.spans, spanRef{start: ev.Start, end: end, cat: ev.Cat, name: ev.Name, blocked: blocked, seq: i})
			if blocked {
				td.blockedEnd = append(td.blockedEnd, end)
			}
			if end > td.maxEnd {
				td.maxEnd = end
			}
		case trace.KindInstant:
			td := a.track(ev.Track)
			switch {
			case ev.Cat == "cache" && ev.Name == "cache_write":
				td.cacheWrite = true
			case ev.Cat == "adio" && ev.Name == "failover_epoch":
				td.failTs = append(td.failTs, ev.Start)
			case ev.Cat == "tenant" && (ev.Name == "tenant_stall" || ev.Name == "tenant_admit_queued"):
				if td.stallTs == nil {
					td.stallTs = make(map[int64]bool)
				}
				td.stallTs[ev.Start] = true
			}
			if ev.Start > td.maxEnd {
				td.maxEnd = ev.Start
			}
		case trace.KindAsyncBegin:
			if ev.Cat == "mpi" && ev.Name == "p2p" {
				op := openPair{track: ev.Track, ts: ev.Start, dst: -1}
				for j := uint8(0); j < ev.NArgs; j++ {
					switch ev.Args[j].Key {
					case "bytes":
						op.bytes = ev.Args[j].Val
					case "dst":
						op.dst = ev.Args[j].Val
					}
				}
				open[ev.ID] = op
			}
		case trace.KindAsyncEnd:
			if ev.Cat != "mpi" || ev.Name != "p2p" {
				break
			}
			b, ok := open[ev.ID]
			if !ok {
				break
			}
			delete(open, ev.ID)
			pr := pairRef{id: ev.ID, beginTrack: b.track, endTrack: ev.Track, beginTs: b.ts, endTs: ev.Start, bytes: b.bytes}
			if pr.beginTrack == pr.endTrack {
				// Same-track end: either a self-delivery (dst == own rank) or
				// the sender-side drop point of a lost/partitioned message.
				if int(b.dst) != rankOf(tr.TrackName(pr.beginTrack)) {
					dropIv = append(dropIv, [2]int64{pr.beginTs, pr.endTs + dropGraceNs})
					break
				}
			}
			td := a.track(pr.endTrack)
			td.pairs = append(td.pairs, pr)
		}
	}
	for _, td := range a.tracks {
		sort.Slice(td.spans, func(i, j int) bool {
			if td.spans[i].end != td.spans[j].end {
				return td.spans[i].end < td.spans[j].end
			}
			return td.spans[i].seq < td.spans[j].seq
		})
		sort.Slice(td.pairs, func(i, j int) bool {
			if td.pairs[i].endTs != td.pairs[j].endTs {
				return td.pairs[i].endTs < td.pairs[j].endTs
			}
			return td.pairs[i].id < td.pairs[j].id
		})
		sort.Slice(td.blockedEnd, func(i, j int) bool { return td.blockedEnd[i] < td.blockedEnd[j] })
		sort.Slice(td.failTs, func(i, j int) bool { return td.failTs[i] < td.failTs[j] })
		bset := make(map[int64]bool)
		for _, s := range td.spans {
			bset[s.start] = true
			bset[s.end] = true
		}
		for _, p := range td.pairs {
			bset[p.endTs] = true
		}
		td.breaks = td.breaks[:0]
		for b := range bset {
			td.breaks = append(td.breaks, b)
		}
		sort.Slice(td.breaks, func(i, j int) bool { return td.breaks[i] < td.breaks[j] })
	}
	// Merge the drop windows into a flat sorted interval union.
	sort.Slice(dropIv, func(i, j int) bool { return dropIv[i][0] < dropIv[j][0] })
	for _, iv := range dropIv {
		n := len(a.drops)
		if n > 0 && iv[0] <= a.drops[n-1] {
			if iv[1] > a.drops[n-1] {
				a.drops[n-1] = iv[1]
			}
			continue
		}
		a.drops = append(a.drops, iv[0], iv[1])
	}
	return a
}

// overlapsDrop reports whether (u, t] intersects the drop-window union.
func (a *analysis) overlapsDrop(u, t int64) bool {
	// a.drops is [s0,e0,s1,e1,...]; find the first interval with end > u.
	i := sort.Search(len(a.drops)/2, func(k int) bool { return a.drops[2*k+1] > u })
	return 2*i < len(a.drops) && a.drops[2*i] < t
}

// prevBreak returns the largest breakpoint < t on the track, or 0.
func (td *trackData) prevBreak(t int64) int64 {
	i := sort.Search(len(td.breaks), func(k int) bool { return td.breaks[k] >= t })
	if i == 0 {
		return 0
	}
	b := td.breaks[i-1]
	if b < 0 {
		return 0
	}
	return b
}

// pairEndingAt returns the delivered pair ending exactly at t on the track
// (latest id on ties), or nil.
func (td *trackData) pairEndingAt(t int64) *pairRef {
	i := sort.Search(len(td.pairs), func(k int) bool { return td.pairs[k].endTs > t })
	if i == 0 || td.pairs[i-1].endTs != t {
		return nil
	}
	return &td.pairs[i-1]
}

// blockedEndsAt reports whether a blocked span ends exactly at t.
func (td *trackData) blockedEndsAt(t int64) bool {
	i := sort.Search(len(td.blockedEnd), func(k int) bool { return td.blockedEnd[k] >= t })
	return i < len(td.blockedEnd) && td.blockedEnd[i] == t
}

// failoverIn reports whether a failover_epoch instant falls in (u, t].
func (td *trackData) failoverIn(u, t int64) bool {
	i := sort.Search(len(td.failTs), func(k int) bool { return td.failTs[k] > u })
	return i < len(td.failTs) && td.failTs[i] <= t
}

// mapSpan maps one covering span to a category.
func (td *trackData) mapSpan(s *spanRef) Category {
	switch s.cat {
	case "phase":
		switch s.name {
		case "calc_offsets", "shuffle_all2all", "exchange_waitall", "post_write":
			return CatShuffle
		case "pack":
			return CatCompute
		case "write":
			if td.cacheWrite {
				return CatNVMWrite
			}
			return CatPFSWrite
		case "not_hidden_sync":
			return CatSyncFlush
		}
		return CatOther
	case "mpi":
		return CatShuffle
	case "cache":
		switch s.name {
		case "not_hidden_sync", "sync_extent":
			return CatSyncFlush
		case "sync_chunk":
			return CatPFSWrite
		case "recovery":
			return CatFailover
		}
		return CatOther
	}
	return CatOther
}

// classify attributes the interval (u, t] on one track.
func (a *analysis) classify(td *trackData, u, t int64) (Category, string) {
	if td.failoverIn(u, t) {
		return CatFailover, "failover_epoch"
	}
	var blocked *spanRef
	var inner *spanRef // innermost non-blocked cover with a non-other mapping
	var innerAny *spanRef
	cat := CatOther
	for i := range td.spans {
		s := &td.spans[i]
		if s.start > u || s.end < t {
			continue
		}
		if s.blocked {
			if blocked == nil || s.start > blocked.start {
				blocked = s
			}
			continue
		}
		if innerAny == nil || s.start > innerAny.start ||
			(s.start == innerAny.start && (s.end < innerAny.end || (s.end == innerAny.end && s.seq > innerAny.seq))) {
			innerAny = s
		}
		if c := td.mapSpan(s); c != CatOther {
			if inner == nil || s.start > inner.start ||
				(s.start == inner.start && (s.end < inner.end || (s.end == inner.end && s.seq > inner.seq))) {
				inner = s
				cat = c
			}
		}
	}
	if blocked != nil && td.stallTs[blocked.start] {
		return CatLockWait, "tenant_stall"
	}
	if inner != nil {
		if cat == CatShuffle && blocked != nil && a.overlapsDrop(u, t) {
			return CatRetransmit, inner.name
		}
		return cat, inner.name
	}
	if innerAny != nil {
		return CatOther, innerAny.name
	}
	// Nothing covers the interval: the rank was running (or sleeping through
	// an emulated compute phase) outside any instrumented layer.
	return CatCompute, ""
}

// Analyze computes the critical-path report for a recorded trace. wallNs is
// the run's virtual wall time; the attributed span is max(wallNs, last event
// end), so on an honest trace AttributedNs == wallNs exactly.
func Analyze(tr *trace.Tracer, wallNs int64) *Report {
	rep := &Report{Schema: ReportSchema, WallNs: wallNs}
	a := build(tr)

	// T0 bounds the run; pick the start track holding the bounding event,
	// preferring rank tracks.
	t0 := wallNs
	start := trace.NoTrack
	var rankMax, anyMax int64 = -1, -1
	var rankTk, anyTk trace.TrackID = trace.NoTrack, trace.NoTrack
	ids := make([]trace.TrackID, 0, len(a.tracks))
	for id := range a.tracks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		td := a.tracks[id]
		if td.maxEnd > anyMax {
			anyMax, anyTk = td.maxEnd, id
		}
		if tr.TrackGroup(id) == trace.GroupRanks && td.maxEnd > rankMax {
			rankMax, rankTk = td.maxEnd, id
		}
	}
	if anyMax > t0 {
		t0 = anyMax
	}
	switch {
	case rankTk != trace.NoTrack && (rankMax >= t0 || anyTk == trace.NoTrack):
		start = rankTk
	case anyTk != trace.NoTrack && anyMax >= t0:
		start = anyTk
	case rankTk != trace.NoTrack:
		start = rankTk
	default:
		start = anyTk
	}
	rep.AttributedNs = t0
	rep.StartTrack = tr.TrackName(start)

	shares := make(map[Category]*Share)
	perTrack := make(map[trace.TrackID]map[Category]int64)
	var segs []Segment
	addSeg := func(tk trace.TrackID, from, to int64, cat Category, via string) {
		if to <= from {
			return
		}
		sh := shares[cat]
		if sh == nil {
			sh = &Share{Category: cat}
			shares[cat] = sh
		}
		sh.Ns += to - from
		sh.Segments++
		pt := perTrack[tk]
		if pt == nil {
			pt = make(map[Category]int64)
			perTrack[tk] = pt
		}
		pt[cat] += to - from
		segs = append(segs, Segment{Track: tr.TrackName(tk), FromNs: from, ToNs: to, Category: cat, Via: via})
	}

	cur, t := start, t0
	for t > 0 && cur != trace.NoTrack {
		td := a.track(cur)
		if p := td.pairEndingAt(t); p != nil && p.beginTs < t && td.blockedEndsAt(t) && p.beginTrack != p.endTrack {
			cat := CatShuffle
			if a.overlapsDrop(p.beginTs, t) {
				cat = CatRetransmit
			}
			addSeg(cur, p.beginTs, t, cat, "p2p")
			rep.Edges = append(rep.Edges, Edge{
				ID: p.id, From: tr.TrackName(p.beginTrack), To: tr.TrackName(p.endTrack),
				SendNs: p.beginTs, RecvNs: t, Bytes: p.bytes,
			})
			cur, t = p.beginTrack, p.beginTs
			continue
		}
		u := td.prevBreak(t)
		cat, via := a.classify(td, u, t)
		addSeg(cur, u, t, cat, via)
		t = u
	}
	if t > 0 {
		// Empty trace: attribute everything to compute on a nameless track.
		addSeg(trace.NoTrack, 0, t, CatCompute, "")
	}

	rep.Segments = len(segs)
	for _, c := range Categories {
		if sh := shares[c]; sh != nil {
			rep.Shares = append(rep.Shares, *sh)
		}
	}
	// Top segments by length (tie: earlier FromNs first), capped.
	top := append([]Segment(nil), segs...)
	sort.Slice(top, func(i, j int) bool {
		di, dj := top[i].ToNs-top[i].FromNs, top[j].ToNs-top[j].FromNs
		if di != dj {
			return di > dj
		}
		return top[i].FromNs < top[j].FromNs
	})
	if len(top) > 16 {
		top = top[:16]
	}
	rep.TopSegments = top
	// Straggler ranking over rank tracks on the path.
	for _, id := range ids {
		if tr.TrackGroup(id) != trace.GroupRanks {
			continue
		}
		pt := perTrack[id]
		if pt == nil {
			continue
		}
		var total, best int64
		topCat := CatOther
		for _, c := range Categories {
			total += pt[c]
			if pt[c] > best {
				best, topCat = pt[c], c
			}
		}
		rep.Stragglers = append(rep.Stragglers, Straggler{Track: tr.TrackName(id), OnPathNs: total, Top: topCat})
	}
	sort.SliceStable(rep.Stragglers, func(i, j int) bool { return rep.Stragglers[i].OnPathNs > rep.Stragglers[j].OnPathNs })
	if len(rep.Stragglers) > 8 {
		rep.Stragglers = rep.Stragglers[:8]
	}
	rep.WhatIf = whatIf(rep)
	return rep
}

// whatIf builds the Eq.-1-style estimates from the computed shares.
func whatIf(rep *Report) []WhatIf {
	get := func(c Category) int64 {
		for _, sh := range rep.Shares {
			if sh.Category == c {
				return sh.Ns
			}
		}
		return 0
	}
	mk := func(scenario string, c Category, factorPct int) (WhatIf, bool) {
		ns := get(c)
		if ns == 0 || rep.AttributedNs == 0 {
			return WhatIf{}, false
		}
		saved := ns - ns*int64(factorPct)/100
		return WhatIf{
			Scenario: scenario, Category: c, FactorPct: factorPct,
			SavedNs: saved, NewWallNs: rep.AttributedNs - saved,
			ReductionPctX10: saved * 1000 / rep.AttributedNs,
		}, true
	}
	var out []WhatIf
	for _, w := range []struct {
		scenario string
		cat      Category
		pct      int
	}{
		{"nvm_sync_2x_faster", CatSyncFlush, 50},
		{"shuffle_msgs_halved", CatShuffle, 50},
		{"nvm_write_2x_faster", CatNVMWrite, 50},
		{"pfs_write_2x_faster", CatPFSWrite, 50},
		{"no_retransmits", CatRetransmit, 0},
		{"no_lock_waits", CatLockWait, 0},
	} {
		if wi, ok := mk(w.scenario, w.cat, w.pct); ok {
			out = append(out, wi)
		}
	}
	return out
}
