package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilTracerSafe locks in the disabled-tracer contract: every method on
// a nil *Tracer (and the zero Span) must be a safe no-op.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tk := tr.Track(GroupRanks, "rank 0")
	if tk != NoTrack {
		t.Fatalf("nil tracer Track = %d, want NoTrack", tk)
	}
	sp := tr.Begin(tk, "mpi", "barrier", 0)
	sp.End(10)
	tr.SpanAt(tk, "c", "n", 0, 5)
	tr.Instant(tk, "c", "n", 1)
	tr.Counter(tk, "q", 2, 3)
	if id := tr.AsyncBegin(tk, "c", "n", 0); id != 0 {
		t.Fatalf("nil AsyncBegin id = %d, want 0", id)
	}
	tr.AsyncEnd(tk, "c", "n", 1, 5)
	if tr.Len() != 0 || tr.Tracks() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer accumulated state")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-tracer chrome output is invalid JSON: %q", buf.String())
	}
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatalf("nil WriteSummary: %v", err)
	}
}

func buildSample() *Tracer {
	tr := New()
	r0 := tr.Track(GroupRanks, "rank 0")
	r1 := tr.Track(GroupRanks, "rank 1")
	st := tr.Track(GroupStations, "pfs.tgt0")
	tr.SpanAt(r0, "mpi", "allreduce", 1000, 51000, I("bytes", 64))
	tr.SpanAt(r1, "mpi", "allreduce", 1000, 41000)
	tr.SpanAt(st, "station", "pfs.tgt0", 2000, 12000)
	tr.Instant(r0, "cache", "cache_write", 60000, I("off", 0), I("bytes", 4096))
	tr.Counter(st, "queue", 2000, 1)
	tr.Counter(st, "queue", 5000, 3)
	tr.Counter(st, "queue", 12000, 0)
	id := tr.AsyncBegin(r0, "mpi", "p2p", 70000, I("dst", 1))
	tr.AsyncEnd(r1, "mpi", "p2p", id, 90123)
	return tr
}

// TestTrackDedupe checks that re-registering a (group, name) pair returns
// the same id and that per-group thread ids are sequential.
func TestTrackDedupe(t *testing.T) {
	tr := New()
	a := tr.Track(GroupRanks, "rank 0")
	b := tr.Track(GroupStations, "nic")
	c := tr.Track(GroupRanks, "rank 0")
	if a != c {
		t.Fatalf("re-registration returned %d, want %d", c, a)
	}
	if a == b {
		t.Fatal("distinct tracks share an id")
	}
	if tr.Tracks() != 2 {
		t.Fatalf("Tracks() = %d, want 2", tr.Tracks())
	}
	if tr.TrackName(a) != "rank 0" || tr.TrackName(b) != "nic" {
		t.Fatal("TrackName mismatch")
	}
}

// TestChromeExport checks the exporter emits valid JSON with the expected
// event phases and integer-math microsecond timestamps.
func TestChromeExport(t *testing.T) {
	tr := buildSample()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	out := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("chrome output is invalid JSON:\n%s", out)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	phases := map[string]int{}
	tgtQueue := 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		if ph == "C" && ev["name"] == "queue" && ev["id"] == "pfs.tgt0" {
			tgtQueue++
		}
	}
	// 3 tracks -> 3 thread_name + 2 groups * 2 process metadata events.
	if phases["M"] != 7 {
		t.Fatalf("metadata events = %d, want 7", phases["M"])
	}
	if phases["X"] != 3 || phases["i"] != 1 || phases["C"] != 3 || phases["b"] != 1 || phases["e"] != 1 {
		t.Fatalf("phase counts = %v", phases)
	}
	// 90123 ns -> "90.123" µs, written via integer arithmetic.
	if !strings.Contains(out, "\"ts\":90.123") {
		t.Fatalf("expected integer-math timestamp 90.123 in output:\n%s", out)
	}
	// Counter series are keyed by the bare counter name plus the track
	// name as id, so the name vocabulary stays bounded.
	if tgtQueue == 0 {
		t.Fatalf("no counter event named queue with id pfs.tgt0:\n%s", out)
	}
}

// TestChromeDeterminism: identical recording sequences produce byte-identical
// exports, including map-backed structures (tracks, counters).
func TestChromeDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome export is not byte-deterministic")
	}
	var sa, sb bytes.Buffer
	buildSample().WriteSummary(&sa)
	buildSample().WriteSummary(&sb)
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("summary export is not byte-deterministic")
	}
}

// TestSummary checks aggregation, ordering and high-water marks.
func TestSummary(t *testing.T) {
	tr := buildSample()
	sum := tr.Summary()
	if !strings.Contains(sum, "9 events on 3 tracks") {
		t.Fatalf("summary header wrong:\n%s", sum)
	}
	// allreduce total (50µs+40µs) outranks the station span (10µs).
	iAll := strings.Index(sum, "allreduce")
	iStation := strings.Index(sum, "pfs.tgt0 ")
	if iAll < 0 || iStation < 0 || iAll > iStation {
		t.Fatalf("span ordering wrong:\n%s", sum)
	}
	if !strings.Contains(sum, "pfs.tgt0:queue") {
		t.Fatalf("counter missing from summary:\n%s", sum)
	}
	if got := tr.CounterMax(tr.Track(GroupStations, "pfs.tgt0"), "queue"); got != 3 {
		t.Fatalf("CounterMax = %d, want 3", got)
	}
}

// TestSpanClamp: spans never report negative durations.
func TestSpanClamp(t *testing.T) {
	tr := New()
	tk := tr.Track(GroupKernel, "kernel")
	tr.SpanAt(tk, "sim", "weird", 100, 50)
	if tr.Events()[0].Dur != 0 {
		t.Fatalf("negative duration not clamped: %d", tr.Events()[0].Dur)
	}
}

// TestArgsTruncated: at most two args are kept.
func TestArgsTruncated(t *testing.T) {
	tr := New()
	tk := tr.Track(GroupRanks, "rank 0")
	tr.Instant(tk, "c", "n", 0, I("a", 1), I("b", 2), I("c", 3))
	ev := tr.Events()[0]
	if ev.NArgs != 2 || ev.Args[0].Key != "a" || ev.Args[1].Key != "b" {
		t.Fatalf("args = %+v (n=%d)", ev.Args, ev.NArgs)
	}
}
