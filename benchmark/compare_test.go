package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := writeJSON(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "host_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "virt_bw_gbs", "unit": "GB/s", "better": "higher", "bound": 0.06}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(host float64, failed int, names ...string) results {
		r := results{Schema: resultsSchema, Seed: 42, Seconds: 15}
		for _, n := range names {
			r.Workloads = append(r.Workloads, workloadResult{Name: n, Metrics: map[string]summary{
				"host_s":      summarize("s", "lower", []float64{host, host * 1.01, host * 0.99}),
				"virt_bw_gbs": summarize("GB/s", "higher", []float64{2.9, 2.9}),
				"failed_frac": summarize("ratio", "lower", []float64{float64(failed) / 4}),
			}})
		}
		return r
	}
	base := write("a.json", run(1.0, 0, "w1", "w2"))

	var out bytes.Buffer
	if err := compareFiles(&out, bench, base, write("same.json", run(1.1, 0, "w1", "w2"))); err != nil {
		t.Fatalf("same code: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), " ok"); got != 6 {
		t.Errorf("%d ok verdicts, want 6:\n%s", got, out.String())
	}
	if !strings.Contains(out.String(), "ok (identical)") {
		t.Errorf("identical virtual values not marked:\n%s", out.String())
	}

	for _, c := range []struct {
		name string
		b    results
		want string
	}{
		// One run a side cannot show a host-time regression.
		{"slow.json", run(1.5, 0, "w1", "w2"), verdictUnresolved},
		{"failing.json", run(1.0, 1, "w1", "w2"), verdictRegressed},
		{"missing.json", run(1.0, 0, "w1"), "w2 "},
	} {
		out.Reset()
		if err := compareFiles(&out, bench, base, write(c.name, c.b)); err == nil {
			t.Errorf("%s: compare passed, want a failure:\n%s", c.name, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}

	// With several runs a side, the verdict rests on the runs' medians. Runs
	// of the same code that drift apart by more than the bound leave host_s
	// unresolved, not regressed; three steady runs 1.5 times slower regress.
	list := func(prefix string, hosts ...float64) string {
		var paths []string
		for i, h := range hosts {
			paths = append(paths, write(fmt.Sprintf("%s%d.json", prefix, i), run(h, 0, "w1", "w2")))
		}
		return strings.Join(paths, ",")
	}
	noisy := list("noisy", 1.0, 1.4, 0.8)
	out.Reset()
	if err := compareFiles(&out, bench, list("steady", 1.0, 1.01, 0.99), noisy); err == nil ||
		strings.Contains(out.String(), verdictRegressed) || strings.Count(out.String(), verdictUnresolved) != 2 {
		t.Errorf("noisy runs: err %v, want two unresolved and no regressed:\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, bench, list("base", 1.0, 1.01, 0.99), list("slower", 1.5, 1.52, 1.48)); err == nil ||
		strings.Count(out.String(), verdictRegressed) != 2 {
		t.Errorf("slower runs: err %v, want two regressed:\n%s", err, out.String())
	}
}

func TestSameBenchCells(t *testing.T) {
	cell := harness.BenchScenario{Name: "c/enabled/8x4", WallTimeNs: 1000, BandwidthGBs: 2.5}
	base := &harness.BenchReport{Scenarios: []harness.BenchScenario{cell}}
	same := &harness.BenchReport{Scenarios: []harness.BenchScenario{cell}}
	if err := sameBenchCells(base, same); err != nil {
		t.Errorf("identical cells: %v", err)
	}
	faster, moreBW := cell, cell
	faster.WallTimeNs = 900
	moreBW.BandwidthGBs = 2.6
	for _, c := range []harness.BenchScenario{faster, moreBW} {
		cur := &harness.BenchReport{Scenarios: []harness.BenchScenario{c}}
		if err := harness.CompareBenchReports(base, cur, 0); err != nil {
			t.Errorf("%+v: CompareBenchReports already flags it (%v), so the case does not test the exact comparison", c, err)
		}
		if err := sameBenchCells(base, cur); err == nil {
			t.Errorf("%+v: drift from the baseline passed", c)
		}
	}
}
