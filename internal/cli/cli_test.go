package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpecFromFlags(t *testing.T) {
	f := parse(t, "-aggs", "16", "-cb", "8", "-case", "theoretical",
		"-files", "2", "-compute", "5", "-nodes", "8", "-ppn", "4")
	spec, err := f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Aggregators != 16 || spec.CBBuffer != 8<<20 || spec.Case != harness.CacheTheoretical {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.NFiles != 2 || spec.ComputeDelay != 5*sim.Second {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Cluster.Nodes != 8 || spec.Cluster.RanksPerNode != 4 {
		t.Fatalf("cluster = %+v", spec.Cluster)
	}
}

func TestSpecDegradedFlags(t *testing.T) {
	f := parse(t, "-reliable")
	spec, err := f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Reliable || spec.Resilient {
		t.Fatalf("-reliable: spec = %+v", spec)
	}
	f = parse(t, "-resilient")
	spec, err = f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	// Spec.Resilient arms reliable delivery itself (harness.Run).
	if spec.Reliable || !spec.Resilient {
		t.Fatalf("-resilient must set Resilient alone: spec = %+v", spec)
	}
}

// TestSpecRejectsBadCase checks that every bad flag value fails with an
// error naming it, either when the flags build the spec or when the
// harness takes the spec, before any simulation starts.
func TestSpecRejectsBadCase(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-case", "turbo"}, `unknown -case "turbo"`},
		{[]string{"-files", "0"}, "harness: files must be at least 1, got 0"},
		{[]string{"-files", "-1"}, "harness: files must be at least 1, got -1"},
		{[]string{"-compute", "-1"}, "harness: compute delay must not be negative, got -1s"},
		{[]string{"-nodes", "0"}, "harness: nodes must be at least 1, got 0"},
		{[]string{"-ppn", "0"}, "harness: ranks per node must be at least 1, got 0"},
		{[]string{"-aggs", "-1"}, `adio: hint cb_nodes: invalid value "-1"`},
	} {
		args := append([]string{"-nodes", "2", "-ppn", "2", "-aggs", "2", "-files", "1"}, tc.args...)
		spec, err := parse(t, args...).Spec(workloads.DefaultIOR())
		if err == nil {
			_, err = harness.Run(spec)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

// smallRun runs a small cache-enabled coll_perf cell, traced when traced.
func smallRun(t *testing.T, traced bool) *harness.Result {
	t.Helper()
	w := workloads.CollPerf{RunBytes: 32 << 10, RunsY: 2, RunsZ: 2}
	spec := harness.DefaultSpec(w, harness.CacheEnabled, 2, 1<<20)
	spec.Cluster = harness.Scaled(1, 2, 2)
	spec.NFiles = 1
	spec.ComputeDelay = sim.Second
	spec.TraceEvents = traced
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReportRendersEverything(t *testing.T) {
	res := smallRun(t, false)
	var buf bytes.Buffer
	parse(t).Report(&buf, "test", res)
	out := buf.String()
	for _, want := range []string{"perceived bandwidth", "coll_perf", "phase 0", "breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestObservationFlagsTurnOnTracing checks that every flag reading the
// trace turns the tracer on, and that the metrics flags turn the registry
// on.
func TestObservationFlagsTurnOnTracing(t *testing.T) {
	for _, tc := range []struct {
		args           []string
		traced, meters bool
	}{
		{nil, false, false},
		{[]string{"-trace", "t.json"}, true, false},
		{[]string{"-trace-summary"}, true, false},
		{[]string{"-critpath"}, true, false},
		{[]string{"-timeline", "8"}, true, false},
		{[]string{"-metrics"}, false, true},
		{[]string{"-metrics-out", "m.json"}, false, true},
	} {
		spec, err := parse(t, tc.args...).Spec(workloads.DefaultIOR())
		if err != nil {
			t.Fatal(err)
		}
		if spec.TraceEvents != tc.traced || spec.Metrics != tc.meters {
			t.Errorf("%v: TraceEvents=%v Metrics=%v, want %v %v",
				tc.args, spec.TraceEvents, spec.Metrics, tc.traced, tc.meters)
		}
	}
}

// TestReportExportsAndAnalysesTheTrace checks that Report's trace file is
// the run's WriteChrome export byte for byte, and that its critical-path
// and timeline sections are critpath.Analyze and BuildTimeline on the
// run's trace.
func TestReportExportsAndAnalysesTheTrace(t *testing.T) {
	res := smallRun(t, true)
	path := filepath.Join(t.TempDir(), "trace.json")
	var got bytes.Buffer
	parse(t, "-trace", path, "-critpath", "-timeline", "6").Report(&got, "test", res)

	var want bytes.Buffer
	parse(t).Report(&want, "test", res)
	fmt.Fprintf(&want, "trace: wrote %s (%d events on %d tracks); open with https://ui.perfetto.dev\n",
		path, res.Trace.Len(), res.Trace.Tracks())
	wall := int64(res.WallTime)
	want.WriteString(critpath.Analyze(res.Trace, wall).Markdown())
	want.WriteString(critpath.BuildTimeline(res.Trace, wall, 6).Markdown())
	if got.String() != want.String() {
		t.Errorf("report output:\n%s\nwant:\n%s", got.String(), want.String())
	}

	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var export bytes.Buffer
	if err := res.Trace.WriteChrome(&export); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, export.Bytes()) {
		t.Errorf("trace file (%d bytes) differs from WriteChrome (%d bytes)", len(file), export.Len())
	}
}
