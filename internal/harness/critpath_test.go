package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/critpath"
)

// runCrit runs the golden-trace cell and analyses its trace: the
// critical-path report and the run timeline.
func runCrit(t *testing.T) (*critpath.Report, *critpath.Timeline) {
	t.Helper()
	res, err := Run(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	return analyze(res)
}

// analyze runs the critical-path analyzer and builds the default timeline
// on res's trace, as the bench CLIs do for -critpath and -timeline.
func analyze(res *Result) (*critpath.Report, *critpath.Timeline) {
	wall := int64(res.WallTime)
	return critpath.Analyze(res.Trace, wall),
		critpath.BuildTimeline(res.Trace, wall, critpath.DefaultTimelineBuckets)
}

// TestGoldenCritPath locks the rendered critical-path and timeline reports
// down byte for byte against the checked-in goldens. Any change to the
// walk, the category mapping or the markdown rendering shows up here;
// regenerate deliberately with
//
//	go test ./internal/harness -run TestGoldenCritPath -update
func TestGoldenCritPath(t *testing.T) {
	rep, tl := runCrit(t)
	goldens := []struct {
		file string
		got  string
	}{
		{"golden_critpath.md", rep.Markdown()},
		{"golden_timeline.md", tl.Markdown()},
	}
	for _, g := range goldens {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", path, len(g.got))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		if !bytes.Equal([]byte(g.got), want) {
			t.Errorf("%s diverges from golden (got %d bytes, want %d)\ngot:\n%s",
				g.file, len(g.got), len(want), g.got)
		}
	}
}

// TestCritPathRunDeterminism re-runs the golden cell and requires the
// analyzer report and the timeline to be identical across fresh kernels:
// they are pure functions of the deterministic trace.
func TestCritPathRunDeterminism(t *testing.T) {
	arep, atl := runCrit(t)
	brep, btl := runCrit(t)
	if !reflect.DeepEqual(arep, brep) {
		t.Error("two identical runs produced different critical-path reports")
	}
	if !reflect.DeepEqual(atl, btl) {
		t.Error("two identical runs produced different timelines")
	}
}

// TestCritPathDoesNotPerturb exports the golden-trace cell's trace, runs
// the analyzer and builds the timeline on it, and exports it again: the
// two exports must be byte-identical. The analyses only read the recorded
// trace, after the kernel stops, so they can change neither it nor any
// number the run reported.
func TestCritPathDoesNotPerturb(t *testing.T) {
	res, err := Run(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	export := func() []byte {
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	before := export()
	analyze(res)
	if after := export(); !bytes.Equal(before, after) {
		t.Errorf("analysing the trace changed its export (%d vs %d bytes)", len(before), len(after))
	}
}

// TestBenchMatrixCritPathExact runs every cell of the fixed bench matrix
// with the analyzer on and requires exact attribution on each: the critical
// path accounts for every nanosecond of virtual wall time, with the
// category shares partitioning the total. No tolerance — the walk is a
// contiguous backward partition of [0, wall] by construction, and any cell
// where it comes up short means a trace vocabulary the analyzer missed.
func TestBenchMatrixCritPathExact(t *testing.T) {
	if testing.Short() {
		t.Skip("18-cell matrix skipped in -short mode")
	}
	for _, cell := range benchCells(42) {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			spec := cell.Spec
			spec.TraceEvents = true
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep := critpath.Analyze(res.Trace, int64(res.WallTime))
			if rep.AttributedNs != int64(res.WallTime) {
				t.Errorf("attributed %d ns, want wall time %d ns", rep.AttributedNs, int64(res.WallTime))
			}
			var sum int64
			for _, sh := range rep.Shares {
				sum += sh.Ns
			}
			if sum != rep.AttributedNs {
				t.Errorf("shares sum to %d ns, want %d ns", sum, rep.AttributedNs)
			}
		})
	}
}

// TestScale_CritPath runs the three kilo-rank variants with the analyzer on.
// RunScale itself enforces exact attribution; this test additionally pins
// that the analyzed run's digest matches the plain run — the analyzer never
// perturbs the simulation, even at scale — and that the report's category
// shares survive into the scale report.
func TestScale_CritPath(t *testing.T) {
	for _, v := range []ScaleVariant{ScaleClean, ScaleLossy, ScaleCrash} {
		v := v
		t.Run(string(v), func(t *testing.T) {
			cfg := scaleTestConfig(t, v)
			plain, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CritPath = true
			crit, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Digest() != crit.Digest() {
				t.Errorf("analyzer perturbed the run\nplain:\n%scrit:\n%s",
					plain.Text(), crit.Text())
			}
			if len(crit.CritPath) == 0 {
				t.Fatal("scale report carries no critical-path shares")
			}
			var sum int64
			for _, sh := range crit.CritPath {
				sum += sh.Ns
			}
			if sum != crit.WallTimeNs {
				t.Errorf("critpath shares sum to %d ns, want wall time %d ns", sum, crit.WallTimeNs)
			}
		})
	}
}
