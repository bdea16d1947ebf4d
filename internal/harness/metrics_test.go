package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/estat"
)

// metricsSpec is the golden-trace cell with the metrics registry attached
// instead of the tracer.
func metricsSpec() Spec {
	spec := traceSpec()
	spec.TraceEvents = false
	spec.Metrics = true
	return spec
}

// TestMetricsDoNotPerturb runs the same cell with metrics off and on and
// requires every reported number to be identical: the registry observes
// virtual time but never advances it.
func TestMetricsDoNotPerturb(t *testing.T) {
	off := metricsSpec()
	off.Metrics = false
	plain, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	measured, err := Run(metricsSpec())
	if err != nil {
		t.Fatal(err)
	}
	if plain.BandwidthGBs != measured.BandwidthGBs {
		t.Errorf("bandwidth perturbed: %v (off) vs %v (on)", plain.BandwidthGBs, measured.BandwidthGBs)
	}
	if plain.WallTime != measured.WallTime {
		t.Errorf("wall time perturbed: %v vs %v", plain.WallTime, measured.WallTime)
	}
	if plain.PeakBufBytes != measured.PeakBufBytes {
		t.Errorf("peak buffer perturbed: %d vs %d", plain.PeakBufBytes, measured.PeakBufBytes)
	}
	if !reflect.DeepEqual(plain.Phases, measured.Phases) {
		t.Errorf("phase metrics perturbed:\n off: %+v\n  on: %+v", plain.Phases, measured.Phases)
	}
	if !reflect.DeepEqual(plain.Breakdown, measured.Breakdown) {
		t.Errorf("breakdown perturbed:\n off: %v\n  on: %v", plain.Breakdown, measured.Breakdown)
	}
}

// TestMetricsRunDeterminism re-runs the cell and asserts the rendered
// registry is byte-identical: label merging, registration order and every
// recorded value reproduce exactly from a fresh kernel.
func TestMetricsRunDeterminism(t *testing.T) {
	render := func() string {
		res, err := Run(metricsSpec())
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics == nil {
			t.Fatal("metrics enabled but no registry recorded")
		}
		return res.Metrics.Text()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical runs rendered different registries (%d vs %d bytes)", len(a), len(b))
	}
	for _, want := range []string{"layer=sim", "layer=netsim", "layer=mpi", "layer=adio", "layer=core", "layer=nvm", "layer=pfs"} {
		if !strings.Contains(a, want) {
			t.Errorf("registry text missing %q", want)
		}
	}
}

// TestGoldenStatReport locks the e10stat markdown report for the golden cell
// down byte for byte, and checks the breakdown table's structural invariant:
// the rows sum to the wall time exactly. Regenerate deliberately with
//
//	go test ./internal/harness -run TestGoldenStatReport -update
func TestGoldenStatReport(t *testing.T) {
	res, err := Run(metricsSpec())
	if err != nil {
		t.Fatal(err)
	}
	in := res.StatInput()
	text, err := estat.Render([]estat.Input{in}, estat.FormatMarkdown)
	if err != nil {
		t.Fatal(err)
	}

	rep := estat.Build([]estat.Input{in})
	if len(rep.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(rep.Cells))
	}
	var sum int64
	for _, row := range rep.Cells[0].Rows {
		sum += row.Ns
	}
	if sum != rep.Cells[0].WallTimeNs {
		t.Errorf("breakdown rows sum to %d ns, wall time is %d ns", sum, rep.Cells[0].WallTimeNs)
	}
	if len(rep.Overlaps) != 1 {
		t.Errorf("cache-enabled run should produce a flush-overlap row, got %d", len(rep.Overlaps))
	}

	golden := filepath.Join("testdata", "golden_e10stat.md")
	got := []byte(text)
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
		t.Fatalf("e10stat report diverges from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenMetricsText locks the rendered metrics registry of the metered
// golden cell byte for byte: every series, label set and value. Regenerate
// deliberately with
//
//	go test ./internal/harness -run TestGoldenMetricsText -update
func TestGoldenMetricsText(t *testing.T) {
	res, err := Run(metricsSpec())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_metrics.txt")
	got := res.Metrics.Text()
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("metrics registry diverges from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceSummaryDeterministicUnderFaults re-runs a faulted cell and
// requires the trace digest to be byte-identical: the counter section is
// sorted by track and first-sample time, so summaries no longer depend on
// the order fault handling first touches each station.
func TestTraceSummaryDeterministicUnderFaults(t *testing.T) {
	render := func() string {
		spec := traceSpec()
		spec.FaultSpec = "degrade-target,target=0,factor=0.5,from=100ms,to=2s"
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("tracing enabled but no summary recorded")
		}
		return res.Trace.Summary()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two identical faulted runs produced different trace summaries:\n a:\n%s\n b:\n%s", a, b)
	}
	if !strings.Contains(a, "counter high-water marks:") {
		t.Fatalf("summary missing counter section:\n%s", a)
	}
}
