package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/critpath"
)

// critSpec is the golden-critpath cell: the golden-trace cell with the
// critical-path analyzer and the run timeline switched on.
func critSpec() Spec {
	spec := traceSpec()
	spec.CritPath = true
	spec.TimelineBuckets = critpath.DefaultTimelineBuckets
	return spec
}

func runCrit(t *testing.T) *Result {
	t.Helper()
	res, err := Run(critSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.CritPath == nil {
		t.Fatal("CritPath requested but no report produced")
	}
	if res.Timeline == nil {
		t.Fatal("TimelineBuckets requested but no timeline produced")
	}
	return res
}

// TestGoldenCritPath locks the rendered critical-path and timeline reports
// down byte for byte against the checked-in goldens. Any change to the
// walk, the category mapping or the markdown rendering shows up here;
// regenerate deliberately with
//
//	go test ./internal/harness -run TestGoldenCritPath -update
func TestGoldenCritPath(t *testing.T) {
	res := runCrit(t)
	goldens := []struct {
		file string
		got  string
	}{
		{"golden_critpath.md", res.CritPath.Markdown()},
		{"golden_timeline.md", res.Timeline.Markdown()},
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
// analyzer and timeline output to be byte-identical across fresh kernels:
// the reports are pure functions of the deterministic trace.
func TestCritPathRunDeterminism(t *testing.T) {
	a, b := runCrit(t), runCrit(t)
	if a.CritPath.Markdown() != b.CritPath.Markdown() {
		t.Error("two identical runs produced different critical-path reports")
	}
	if a.Timeline.Markdown() != b.Timeline.Markdown() {
		t.Error("two identical runs produced different timeline reports")
	}
	aj, err := a.CritPath.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.CritPath.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if aj != bj {
		t.Error("two identical runs produced different critical-path JSON")
	}
}

// TestCritPathDoesNotPerturb runs the golden-trace cell with and without
// the analyzer and requires every reported number AND the exported trace to
// be identical: the analyzer is post-hoc — it reads the trace after the
// kernel stops and never advances virtual time.
func TestCritPathDoesNotPerturb(t *testing.T) {
	plain, err := Run(traceSpec())
	if err != nil {
		t.Fatal(err)
	}
	crit, err := Run(critSpec())
	if err != nil {
		t.Fatal(err)
	}
	if plain.WallTime != crit.WallTime {
		t.Errorf("wall time perturbed: %v vs %v", plain.WallTime, crit.WallTime)
	}
	if plain.BandwidthGBs != crit.BandwidthGBs {
		t.Errorf("bandwidth perturbed: %v vs %v", plain.BandwidthGBs, crit.BandwidthGBs)
	}
	if !reflect.DeepEqual(plain.Breakdown, crit.Breakdown) {
		t.Errorf("breakdown perturbed:\n off: %v\n  on: %v", plain.Breakdown, crit.Breakdown)
	}
	plainTrace := exportTraceSpec(t, traceSpec())
	critTrace := exportTraceSpec(t, critSpec())
	if !bytes.Equal(plainTrace, critTrace) {
		t.Errorf("enabling the analyzer changed the exported trace (%d vs %d bytes)",
			len(plainTrace), len(critTrace))
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
			spec.CritPath = true
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.CritPath
			if rep == nil {
				t.Fatal("no critical-path report")
			}
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
