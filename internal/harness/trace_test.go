package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_trace.json from the current run")

// traceSpec is the golden-trace cell: a cache-enabled collective write small
// enough to keep the checked-in trace readable but large enough to exercise
// the two-phase exchange, the sync thread and the PFS targets.
func traceSpec() Spec {
	w := workloads.CollPerf{RunBytes: 32 << 10, RunsY: 2, RunsZ: 2} // 128 KB/proc
	spec := DefaultSpec(w, CacheEnabled, 2, 1<<20)
	spec.Cluster = Scaled(42, 2, 2)
	spec.NFiles = 2
	spec.ComputeDelay = sim.Second / 2
	spec.TraceEvents = true
	return spec
}

func exportTrace(t *testing.T) []byte {
	t.Helper()
	return exportTraceSpec(t, traceSpec())
}

func exportTraceSpec(t *testing.T, spec Spec) []byte {
	t.Helper()
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("tracing enabled but no events recorded")
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTrace locks the exported trace down byte for byte against the
// checked-in golden. Any change to event order, timestamps, track naming or
// JSON rendering shows up here; regenerate deliberately with
//
//	go test ./internal/harness -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	got := exportTrace(t)
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		ctx := func(b []byte) string {
			if hi > len(b) {
				return string(b[lo:])
			}
			return string(b[lo:hi])
		}
		t.Fatalf("trace diverges from golden at byte %d (got %d bytes, want %d)\n got: ...%s...\nwant: ...%s...\n%s",
			i, len(got), len(want), ctx(got), ctx(want), traceEventDiff(got, want))
	}
}

// traceEventDiff says whether two Chrome exports, which hold one event per
// line, hold the same multiset of events, so that a failing golden tells an
// order-only change from a changed event. It lists up to 5 events found on
// one side only, each with its surplus count (+ got, - golden).
func traceEventDiff(got, want []byte) string {
	n := map[string]int{}
	for _, l := range bytes.Split(got, []byte("\n")) {
		n[strings.TrimSuffix(string(l), ",")]++
	}
	for _, l := range bytes.Split(want, []byte("\n")) {
		n[strings.TrimSuffix(string(l), ",")]--
	}
	var only []string
	for l, c := range n {
		if c != 0 {
			only = append(only, fmt.Sprintf("%+d %s", c, l))
		}
	}
	if len(only) == 0 {
		return "same event multiset: only the order differs"
	}
	sort.Strings(only)
	head := only[:min(5, len(only))]
	return fmt.Sprintf("event multisets differ in %d distinct events, e.g.\n%s", len(only), strings.Join(head, "\n"))
}

// TestTraceRunDeterminism re-runs the golden cell in-process and asserts the
// export is byte-identical, independent of the checked-in file. This is the
// stronger claim: a fresh kernel, fresh goroutines and fresh maps reproduce
// the identical event stream.
func TestTraceRunDeterminism(t *testing.T) {
	a := exportTrace(t)
	b := exportTrace(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTracingDoesNotPerturb runs the same cell with tracing off and on and
// requires every reported number to be identical: the tracer observes virtual
// time but never advances it.
func TestTracingDoesNotPerturb(t *testing.T) {
	off := traceSpec()
	off.TraceEvents = false
	plain, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if plain.BandwidthGBs != traced.BandwidthGBs {
		t.Errorf("bandwidth perturbed: %v (off) vs %v (on)", plain.BandwidthGBs, traced.BandwidthGBs)
	}
	if plain.WallTime != traced.WallTime {
		t.Errorf("wall time perturbed: %v vs %v", plain.WallTime, traced.WallTime)
	}
	if plain.PeakBufBytes != traced.PeakBufBytes {
		t.Errorf("peak buffer perturbed: %d vs %d", plain.PeakBufBytes, traced.PeakBufBytes)
	}
	if !reflect.DeepEqual(plain.Phases, traced.Phases) {
		t.Errorf("phase metrics perturbed:\n off: %+v\n  on: %+v", plain.Phases, traced.Phases)
	}
	if !reflect.DeepEqual(plain.Breakdown, traced.Breakdown) {
		t.Errorf("breakdown perturbed:\n off: %v\n  on: %v", plain.Breakdown, traced.Breakdown)
	}
}
