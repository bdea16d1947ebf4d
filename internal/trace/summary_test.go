package trace

import (
	"strings"
	"testing"
)

// TestSummaryCounterOrdering pins the counter section's sort contract:
// counters are ordered by (track, first sample time, name), NOT by series
// registration order — registration order depends on how stations
// interleave on the host, while track and first-sample time are properties
// of the run itself. Two tracers whose series register in different orders
// (each series' own samples still in time order, as a deterministic sim
// delivers them) must render identical summaries.
func TestSummaryCounterOrdering(t *testing.T) {
	type series struct {
		track   string
		name    string
		ts, val []int64
	}
	all := []series{
		{"rank 0", "dirty", []int64{10, 50}, []int64{3, 1}},
		{"rank 0", "queue", []int64{20, 40}, []int64{5, 9}},
		{"rank 1", "dirty", []int64{30}, []int64{2}},
		{"rank 1", "queue", []int64{30}, []int64{7}},
	}
	build := func(order []int) string {
		tr := New()
		tracks := map[string]TrackID{
			"rank 0": tr.Track(GroupRanks, "rank 0"),
			"rank 1": tr.Track(GroupRanks, "rank 1"),
		}
		for _, i := range order {
			s := all[i]
			for j := range s.ts {
				tr.Counter(tracks[s.track], s.name, s.ts[j], s.val[j])
			}
		}
		return tr.Summary()
	}
	forward := build([]int{0, 1, 2, 3})
	shuffled := build([]int{3, 1, 2, 0})
	if forward != shuffled {
		t.Fatalf("summary depends on series registration order:\nforward:\n%s\nshuffled:\n%s",
			forward, shuffled)
	}
	// The rendered order itself: track "rank 0" before "rank 1"; within a
	// track, earlier first sample first (dirty@10 before queue@20), and
	// first-sample ties broken by name (rank 1 dirty before queue, both @30).
	want := []string{"rank 0:dirty", "rank 0:queue", "rank 1:dirty", "rank 1:queue"}
	pos := -1
	for _, label := range want {
		p := strings.Index(forward, label)
		if p < 0 {
			t.Fatalf("summary misses counter %q:\n%s", label, forward)
		}
		if p < pos {
			t.Errorf("counter %q out of order (want %v):\n%s", label, want, forward)
		}
		pos = p
	}
}

// TestSummaryCounterHighWater pins that the counter section reports the
// high-water mark, the last value and the sample count — not the sum.
func TestSummaryCounterHighWater(t *testing.T) {
	tr := New()
	tk := tr.Track(GroupKernel, "cache.sync")
	tr.Counter(tk, "queue", 10, 4)
	tr.Counter(tk, "queue", 20, 9)
	tr.Counter(tk, "queue", 30, 2)
	sum := tr.Summary()
	line := ""
	for _, l := range strings.Split(sum, "\n") {
		if strings.Contains(l, "cache.sync:queue") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("counter label missing:\n%s", sum)
	}
	fields := strings.Fields(line)
	if len(fields) != 4 || fields[1] != "9" || fields[2] != "2" || fields[3] != "3" {
		t.Errorf("want max=9 last=2 samples=3, got line %q", line)
	}
}

// TestSummaryStationRowsPerTrack pins that station spans, which are named
// by their station's kind, are summed per station track: two PFS targets
// of kind "pfs.tgt" get one row each, so a slowed target stands out, while
// other categories are still keyed by span name.
func TestSummaryStationRowsPerTrack(t *testing.T) {
	tr := New()
	tgt0 := tr.Track(GroupStations, "pfs.tgt0")
	tgt1 := tr.Track(GroupStations, "pfs.tgt1")
	rank := tr.Track(GroupRanks, "rank 0")
	tr.SpanAt(tgt0, "station", "pfs.tgt", 0, 1_000)
	tr.SpanAt(tgt1, "station", "pfs.tgt", 0, 5_000)
	tr.SpanAt(tgt1, "station", "pfs.tgt", 5_000, 9_000)
	tr.SpanAt(rank, "mpi", "alltoall", 0, 2_000)
	tr.SpanAt(rank, "mpi", "alltoall", 2_000, 3_000)
	rows := map[string][]string{}
	for _, l := range strings.Split(tr.Summary(), "\n") {
		if f := strings.Fields(l); len(f) == 5 && (f[0] == "station" || f[0] == "mpi") {
			rows[f[1]] = f
		}
	}
	want := map[string]string{"pfs.tgt0": "1", "pfs.tgt1": "2", "alltoall": "2"}
	if len(rows) != len(want) {
		t.Fatalf("summary rows %v, want one per station track plus alltoall:\n%s", rows, tr.Summary())
	}
	for name, count := range want {
		if f, ok := rows[name]; !ok || f[2] != count {
			t.Errorf("row %q = %v, want count %s", name, f, count)
		}
	}
	if rows["pfs.tgt1"][3] != "9.000us" || rows["pfs.tgt0"][3] != "1.000us" {
		t.Errorf("station totals: tgt0 %v, tgt1 %v; want 1.000us and 9.000us", rows["pfs.tgt0"], rows["pfs.tgt1"])
	}
}
