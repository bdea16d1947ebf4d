package critpath

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

const ms = int64(1_000_000)

func shareNs(rep *Report, c Category) int64 {
	for _, sh := range rep.Shares {
		if sh.Category == c {
			return sh.Ns
		}
	}
	return 0
}

func sumShares(rep *Report) int64 {
	var total int64
	for _, sh := range rep.Shares {
		total += sh.Ns
	}
	return total
}

// verifyEdges checks every reported edge against the trace — the same
// invariant the chaos critpath_consistency oracle enforces.
func verifyEdges(t *testing.T, tr *trace.Tracer, rep *Report) {
	t.Helper()
	for _, e := range rep.Edges {
		var haveBegin, haveEnd bool
		for _, ev := range tr.Events() {
			if ev.ID != e.ID {
				continue
			}
			switch ev.Kind {
			case trace.KindAsyncBegin:
				haveBegin = ev.Start == e.SendNs && tr.TrackName(ev.Track) == e.From
			case trace.KindAsyncEnd:
				haveEnd = ev.Start == e.RecvNs && tr.TrackName(ev.Track) == e.To
			}
		}
		if !haveBegin || !haveEnd {
			t.Errorf("edge %+v not backed by trace (begin=%v end=%v)", e, haveBegin, haveEnd)
		}
	}
}

func TestAnalyzeJumpAndSum(t *testing.T) {
	tr := trace.New()
	tk0 := tr.Track(trace.GroupRanks, "rank 0")
	tk1 := tr.Track(trace.GroupRanks, "rank 1")
	tr.SpanAt(tk0, "phase", "pack", 0, 20)
	id := tr.AsyncBegin(tk0, "mpi", "p2p", 20, trace.I("dst", 1), trace.I("bytes", 1024))
	tr.SpanAt(tk1, "phase", "shuffle_all2all", 5, 60)
	tr.SpanAt(tk1, "sim", "blocked", 10, 50)
	tr.AsyncEnd(tk1, "mpi", "p2p", id, 50)
	tr.SpanAt(tk1, "phase", "write", 60, 100)

	rep := Analyze(tr, 100)
	if rep.AttributedNs != 100 {
		t.Fatalf("AttributedNs = %d, want 100", rep.AttributedNs)
	}
	if got := sumShares(rep); got != rep.AttributedNs {
		t.Fatalf("shares sum to %d, want %d", got, rep.AttributedNs)
	}
	if rep.StartTrack != "rank 1" {
		t.Fatalf("StartTrack = %q, want rank 1", rep.StartTrack)
	}
	if len(rep.Edges) != 1 {
		t.Fatalf("edges = %+v, want one", rep.Edges)
	}
	e := rep.Edges[0]
	if e.From != "rank 0" || e.To != "rank 1" || e.SendNs != 20 || e.RecvNs != 50 || e.Bytes != 1024 {
		t.Fatalf("edge = %+v", e)
	}
	verifyEdges(t, tr, rep)
	// (60,100] write without cache_write -> pfs; (50,60] + jump (20,50] ->
	// shuffle; (0,20] pack on rank 0 -> compute.
	if got := shareNs(rep, CatPFSWrite); got != 40 {
		t.Errorf("pfs_write = %d, want 40", got)
	}
	if got := shareNs(rep, CatShuffle); got != 40 {
		t.Errorf("shuffle_comms = %d, want 40", got)
	}
	if got := shareNs(rep, CatCompute); got != 20 {
		t.Errorf("compute = %d, want 20", got)
	}
}

func TestAnalyzeCategories(t *testing.T) {
	tr := trace.New()
	tk := tr.Track(trace.GroupRanks, "rank 0")
	tr.Instant(tk, "tenant", "tenant_stall", 10)
	tr.SpanAt(tk, "sim", "blocked", 10, 30)
	tr.Instant(tk, "cache", "cache_write", 35)
	tr.SpanAt(tk, "phase", "write", 0, 40)
	tr.SpanAt(tk, "cache", "not_hidden_sync", 40, 60)
	tr.Instant(tk, "adio", "failover_epoch", 65)
	tr.SpanAt(tk, "phase", "close", 60, 70)

	rep := Analyze(tr, 80)
	if got := sumShares(rep); got != 80 || rep.AttributedNs != 80 {
		t.Fatalf("sum=%d attributed=%d, want 80", got, rep.AttributedNs)
	}
	want := map[Category]int64{
		CatCompute:   10, // (70,80] uncovered
		CatFailover:  10, // (60,70] failover_epoch instant
		CatSyncFlush: 20,
		CatLockWait:  20, // blocked with tenant_stall at its start
		CatNVMWrite:  20, // write phase on a cache_write track
	}
	for c, ns := range want {
		if got := shareNs(rep, c); got != ns {
			t.Errorf("%s = %d, want %d", c, got, ns)
		}
	}
}

func TestAnalyzeRetransmitStall(t *testing.T) {
	tr := trace.New()
	tk0 := tr.Track(trace.GroupRanks, "rank 0")
	tk1 := tr.Track(trace.GroupRanks, "rank 1")
	// A dropped message: the pair ends back on the sender's own track.
	id := tr.AsyncBegin(tk0, "mpi", "p2p", 10*ms, trace.I("dst", 1))
	tr.AsyncEnd(tk0, "mpi", "p2p", id, 20*ms)
	tr.SpanAt(tk1, "sim", "blocked", 30*ms, 90*ms)
	tr.SpanAt(tk1, "phase", "exchange_waitall", 25*ms, 100*ms)

	rep := Analyze(tr, 100*ms)
	if got := sumShares(rep); got != 100*ms {
		t.Fatalf("shares sum to %d, want %d", got, 100*ms)
	}
	if got := shareNs(rep, CatRetransmit); got != 60*ms {
		t.Errorf("retransmit_stall = %d, want %d", got, 60*ms)
	}
	if got := shareNs(rep, CatShuffle); got != 15*ms {
		t.Errorf("shuffle_comms = %d, want %d", got, 15*ms)
	}
}

func TestAnalyzeSelfSendIsNotADrop(t *testing.T) {
	tr := trace.New()
	tk0 := tr.Track(trace.GroupRanks, "rank 0")
	id := tr.AsyncBegin(tk0, "mpi", "p2p", 10, trace.I("dst", 0))
	tr.AsyncEnd(tk0, "mpi", "p2p", id, 20)
	tr.SpanAt(tk0, "sim", "blocked", 12, 30)
	tr.SpanAt(tk0, "phase", "exchange_waitall", 5, 40)
	rep := Analyze(tr, 40)
	if got := shareNs(rep, CatRetransmit); got != 0 {
		t.Errorf("self-send produced retransmit_stall = %d, want 0", got)
	}
	if got := sumShares(rep); got != 40 {
		t.Fatalf("shares sum to %d, want 40", got)
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	rep := Analyze(trace.New(), 100)
	if rep.AttributedNs != 100 || sumShares(rep) != 100 {
		t.Fatalf("empty trace: attributed=%d sum=%d, want 100", rep.AttributedNs, sumShares(rep))
	}
	if got := shareNs(rep, CatCompute); got != 100 {
		t.Fatalf("empty trace compute = %d, want 100", got)
	}
}

func TestAnalyzeSyntheticInvariants(t *testing.T) {
	tr := SyntheticTrace(128)
	rep := Analyze(tr, 0)
	if rep.AttributedNs == 0 {
		t.Fatal("attributed nothing")
	}
	if got := sumShares(rep); got != rep.AttributedNs {
		t.Fatalf("shares sum to %d, want %d", got, rep.AttributedNs)
	}
	if len(rep.Edges) == 0 {
		t.Error("expected message edges on the synthetic path")
	}
	verifyEdges(t, tr, rep)
	if len(rep.Stragglers) == 0 || len(rep.Stragglers) > 8 {
		t.Errorf("stragglers = %d, want 1..8", len(rep.Stragglers))
	}
	if len(rep.WhatIf) == 0 {
		t.Error("expected what-if rows")
	}
	for _, w := range rep.WhatIf {
		if w.SavedNs+w.NewWallNs != rep.AttributedNs {
			t.Errorf("what-if %s: saved %d + new %d != %d", w.Scenario, w.SavedNs, w.NewWallNs, rep.AttributedNs)
		}
	}
}

func TestAnalyzeDeterminismAndRoundTrip(t *testing.T) {
	r1 := Analyze(SyntheticTrace(64), 0)
	r2 := Analyze(SyntheticTrace(64), 0)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("two analyses of the same trace differ")
	}
	if r1.Markdown() != r2.Markdown() {
		t.Fatal("rendered reports differ")
	}
}

func TestTimeline(t *testing.T) {
	tr := trace.New()
	tk0 := tr.Track(trace.GroupRanks, "rank 0")
	tk1 := tr.Track(trace.GroupRanks, "rank 1")
	tr.Counter(tk0, "q", 10, 5)
	tr.Counter(tk1, "q", 30, 7)
	tr.Counter(tk0, "q", 60, 2)
	id := tr.AsyncBegin(tk0, "mpi", "p2p", 20, trace.I("dst", 1))
	tr.AsyncEnd(tk1, "mpi", "p2p", id, 70)
	tr.SpanAt(tk1, "mpi", "allreduce", 40, 80)
	tr.Instant(tk0, "tenant", "tenant_stall", 55)

	tl := BuildTimeline(tr, 100, 4)
	if len(tl.BucketNs) != 4 || tl.BucketNs[3] != 100 {
		t.Fatalf("buckets = %v", tl.BucketNs)
	}
	get := func(name string) []int64 {
		for _, s := range tl.Series {
			if s.Name == name {
				return s.Values
			}
		}
		t.Fatalf("series %q missing (have %+v)", name, tl.Series)
		return nil
	}
	wantQ := []int64{5, 12, 9, 9} // carry-forward, summed across tracks
	for i, v := range get("q") {
		if v != wantQ[i] {
			t.Errorf("q[%d] = %d, want %d", i, v, wantQ[i])
		}
	}
	wantP2P := []int64{1, 1, 0, 0} // in flight 20..70 covers bucket ends 25, 50
	for i, v := range get("p2p_inflight") {
		if v != wantP2P[i] {
			t.Errorf("p2p_inflight[%d] = %d, want %d", i, v, wantP2P[i])
		}
	}
	wantColl := []int64{0, 1, 1, 0} // allreduce 40..80 covers ends 50, 75
	for i, v := range get("colls_inflight") {
		if v != wantColl[i] {
			t.Errorf("colls_inflight[%d] = %d, want %d", i, v, wantColl[i])
		}
	}
	wantTen := []int64{0, 0, 1, 0}
	for i, v := range get("tenant_events") {
		if v != wantTen[i] {
			t.Errorf("tenant_events[%d] = %d, want %d", i, v, wantTen[i])
		}
	}

	if !reflect.DeepEqual(tl, BuildTimeline(tr, 100, 4)) {
		t.Fatal("timeline not deterministic")
	}
	if md := tl.Markdown(); !strings.Contains(md, "run timeline") || !strings.Contains(md, "p2p_inflight") {
		t.Error("timeline rendering incomplete")
	}
}
