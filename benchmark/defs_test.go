package main

import (
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the benchmark's
// runs are checked against, in step with the metrics and workloads this
// package reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bf struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code %q (%q)", i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, code %s %s %s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer(), false)

	var setupBound, maxOther float64
	for _, m := range bf.EndToEnd {
		if *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = *m.Bound
		} else {
			maxOther = max(maxOther, *m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
}
