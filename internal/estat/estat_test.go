package estat

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

const sampleInput = `{
  "schema": "e10stat/v1",
  "workload": "coll_perf",
  "case": "enabled",
  "cell": "4_4mb",
  "ranks": 4,
  "files": 2,
  "wall_time_ns": 2000000000,
  "compute_ns": 1000000000,
  "total_bytes": 536870912,
  "bandwidth_gbs": 0.5,
  "breakdown": [
    {"phase": "write", "ns": 600000000},
    {"phase": "shuffle_all2all", "ns": 300000000}
  ]
}`

func TestParseSingle(t *testing.T) {
	ins, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 {
		t.Fatalf("want 1 input, got %d", len(ins))
	}
	if got := ins[0].Name(); got != "coll_perf/enabled/4_4mb" {
		t.Errorf("Name() = %q", got)
	}
	if ins[0].WallTimeNs != 2_000_000_000 {
		t.Errorf("wall time = %d", ins[0].WallTimeNs)
	}
}

// TestParseArray rejects an array of inputs: no tool writes one, and
// e10stat's own JSON output is an array.
func TestParseArray(t *testing.T) {
	if ins, err := Parse([]byte("[" + sampleInput + "," + sampleInput + "]")); err == nil {
		t.Fatalf("array accepted as %d inputs", len(ins))
	}
}

func TestParseChromeTrace(t *testing.T) {
	data := `{"traceEvents": [
	  {"name": "write", "cat": "phase", "ph": "X", "ts": 0, "dur": 500, "tid": 1},
	  {"name": "write", "cat": "phase", "ph": "X", "ts": 600, "dur": 700, "tid": 2},
	  {"name": "pack", "cat": "phase", "ph": "X", "ts": 100, "dur": 50, "tid": 1},
	  {"name": "serve", "cat": "pfs", "ph": "X", "ts": 0, "dur": 2000, "tid": 3}
	]}`
	ins, err := Parse([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 {
		t.Fatalf("want 1 input, got %d", len(ins))
	}
	in := ins[0]
	// Wall time: latest end is ts=0,dur=2000 -> 2000us = 2ms.
	if in.WallTimeNs != 2_000_000 {
		t.Errorf("wall = %d ns, want 2000000", in.WallTimeNs)
	}
	// write: max over tids of summed durations -> max(500, 700) = 700us.
	want := map[string]int64{"pack": 50_000, "write": 700_000}
	if len(in.Breakdown) != len(want) {
		t.Fatalf("breakdown %v, want phases %v", in.Breakdown, want)
	}
	for _, e := range in.Breakdown {
		if want[e.Phase] != e.Ns {
			t.Errorf("phase %s = %d ns, want %d", e.Phase, e.Ns, want[e.Phase])
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"malformed":       "{not json",
		"wrong schema":    `{"schema": "e10stat/v999"}`,
		"no schema":       `{"foo": 1}`,
		"negative wall":   `{"schema": "e10stat/v1", "wall_time_ns": -5}`,
		"negative phase":  `{"schema": "e10stat/v1", "breakdown": [{"phase": "write", "ns": -1}]}`,
		"empty array":     `[]`,
		"scalar":          `42`,
		"bad traceEvents": `{"traceEvents": 42}`,
	}
	for name, data := range cases {
		if _, err := Parse([]byte(data)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, data)
		}
	}
}

func TestBreakdownSumsToWall(t *testing.T) {
	ins, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	rep := Build(ins)
	var sum int64
	for _, row := range rep.Cells[0].Rows {
		sum += row.Ns
	}
	if sum != rep.Cells[0].WallTimeNs {
		t.Errorf("rows sum to %d, wall is %d", sum, rep.Cells[0].WallTimeNs)
	}
	// 2e9 wall - (0.6e9 + 0.3e9 + 1e9 compute) = 0.1e9 residual.
	last := rep.Cells[0].Rows[len(rep.Cells[0].Rows)-1]
	if last.Phase != "other" || last.Ns != 100_000_000 {
		t.Errorf("residual row = %+v, want other/100000000", last)
	}
}

func TestSpeedups(t *testing.T) {
	dis, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	dis[0].Case = "disabled"
	dis[0].WallTimeNs = 3_000_000_000
	en, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	rep := Build([]Input{dis[0], en[0]})
	if len(rep.Speedups) != 1 {
		t.Fatalf("want 1 speedup row, got %d", len(rep.Speedups))
	}
	if rep.Speedups[0].SpeedupX100 != 150 {
		t.Errorf("speedup = %d, want 150 (1.50x)", rep.Speedups[0].SpeedupX100)
	}
}

func TestRecoveryRowFromScrubCounters(t *testing.T) {
	ins, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	// No recovery counters: no row, so fault-free reports are unchanged.
	if rep := Build(ins); len(rep.Recoveries) != 0 {
		t.Fatalf("fault-free input grew %d recovery rows", len(rep.Recoveries))
	}
	ins[0].Metrics = &metrics.Snapshot{Counters: []metrics.CounterSnap{
		{Name: "cache_journal_replays_total", Total: 2},
		{Name: "cache_recovered_bytes_total", Total: 1 << 20},
		{Name: "cache_corrupt_extents_total", Total: 3},
		{Name: "cache_quarantined_bytes_total", Total: 64 << 10},
	}}
	rep := Build(ins)
	if len(rep.Recoveries) != 1 {
		t.Fatalf("want 1 recovery row, got %d", len(rep.Recoveries))
	}
	r := rep.Recoveries[0]
	if r.JournalReplays != 2 || r.RecoveredBytes != 1<<20 ||
		r.CorruptExtents != 3 || r.QuarantinedBytes != 64<<10 {
		t.Errorf("recovery row = %+v", r)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "## Crash recovery & scrub") {
		t.Errorf("markdown lacks the recovery section:\n%s", md)
	}
	csv := rep.CSV()
	if !strings.Contains(csv, "recovery,"+ins[0].Name()+",quarantined_bytes,65536") {
		t.Errorf("csv lacks the recovery rows:\n%s", csv)
	}
}

func TestRenderFormats(t *testing.T) {
	ins, err := Parse([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	md, err := Render(ins, FormatMarkdown)
	if err != nil || !strings.Contains(md, "# e10stat report") {
		t.Errorf("markdown render: %v\n%s", err, md)
	}
	csv, err := Render(ins, FormatCSV)
	if err != nil || !strings.HasPrefix(csv, "section,name,key,value\n") {
		t.Errorf("csv render: %v\n%s", err, csv)
	}
	js, err := Render(ins, FormatJSON)
	if err != nil || !strings.Contains(js, `"cells"`) {
		t.Errorf("json render: %v\n%s", err, js)
	}
	if _, err := Render(ins, "xml"); err == nil {
		t.Error("unknown format must error")
	}
}

func TestFixedPointHelpers(t *testing.T) {
	if got := ms(1_234_567_890); got != "1234.567" {
		t.Errorf("ms = %q", got)
	}
	if got := ms(-1_500_000); got != "-1.500" {
		t.Errorf("ms negative = %q", got)
	}
	if got := pctOf(250, 1000); got != "25.0%" {
		t.Errorf("pctOf = %q", got)
	}
	if got := pctOf(1, 0); got != "-" {
		t.Errorf("pctOf zero whole = %q", got)
	}
	if got := pctOf(-50, 1000); got != "-5.0%" {
		t.Errorf("pctOf negative = %q", got)
	}
}
