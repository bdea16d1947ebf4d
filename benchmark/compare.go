package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: the
// end-to-end metrics and their regression bounds.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// hostMetrics are the end-to-end metrics measured on the host rather than
// in virtual time.
var hostMetrics = []string{"host_s", "peak_rss_mb", "setup_s"}

// readRuns reads the results files of one side of a comparison, given as a
// comma-separated list.
func readRuns(list string) ([]results, error) {
	var runs []results
	for _, path := range strings.Split(list, ",") {
		var r results
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// sideSample returns the sample a verdict uses for one workload's metric.
// From one run it is that run's own values (its reps or set-up batches),
// whose spread cannot show how much a second process on the same code would
// differ. From several runs it is each run's median, whose spread is the
// run-to-run spread: the one a bound must be judged against.
func sideSample(runs []results, workload, metric string) (summary, bool) {
	var medians []float64
	var last summary
	for _, r := range runs {
		i := slices.IndexFunc(r.Workloads, func(x workloadResult) bool { return x.Name == workload })
		if i < 0 {
			return summary{}, false
		}
		s, ok := r.Workloads[i].Metrics[metric]
		if !ok {
			return summary{}, false
		}
		medians = append(medians, s.Median)
		last = s
	}
	if len(runs) == 1 {
		return last, true
	}
	return summarize(last.Unit, last.Better, medians), true
}

// compareFiles prints, for every workload and end-to-end metric, each
// side's median and quartiles and a verdict on side b against base side a,
// using the bounds in BENCHMARK.json, and marks metrics whose values are all
// equal. Each side is one results file or a comma-separated list of them;
// a host metric is judged by judge only when both sides have several, and
// by judgePair otherwise.
// failed_frac has bound 0: any new failure is a regression. It fails when a
// workload is missing from either side or any verdict is not ok.
func compareFiles(w io.Writer, benchPath, aList, bList string) error {
	var bf benchmarkFile
	if err := readJSON(benchPath, &bf); err != nil {
		return err
	}
	a, err := readRuns(aList)
	if err != nil {
		return err
	}
	b, err := readRuns(bList)
	if err != nil {
		return err
	}
	for _, r := range append(slices.Clone(a), b...) {
		if r.Seed != a[0].Seed || r.Seconds != a[0].Seconds || r.Trace {
			return fmt.Errorf("compare needs untraced runs with one seed and one seconds (got seed %d and %d, seconds %d and %d, trace %v)",
				a[0].Seed, r.Seed, a[0].Seconds, r.Seconds, r.Trace)
		}
	}
	type bounded struct {
		name  string
		bound float64
	}
	var metrics []bounded
	for _, m := range bf.EndToEnd {
		metrics = append(metrics, bounded{m.Name, m.Bound})
	}
	metrics = append(metrics, bounded{"failed_frac", 0})

	var names []string
	for _, r := range append(slices.Clone(a), b...) {
		for _, wr := range r.Workloads {
			if !slices.Contains(names, wr.Name) {
				names = append(names, wr.Name)
			}
		}
	}
	fmt.Fprintf(w, "%d run(s) against %d run(s)\n", len(a), len(b))
	fmt.Fprintf(w, "%-20s %-14s %-34s %-34s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] n", "B median [q1, q3] n", "bound", "verdict")
	bad := 0
	for _, name := range names {
		for _, m := range metrics {
			sa, okA := sideSample(a, name, m.name)
			sb, okB := sideSample(b, name, m.name)
			if !okA || !okB {
				fmt.Fprintf(w, "%-20s %-14s missing from a run\n", name, m.name)
				bad++
				continue
			}
			v := judge(sa, sb, m.bound)
			if (len(a) == 1 || len(b) == 1) && slices.Contains(hostMetrics, m.name) {
				v = judgePair(sa, sb, m.bound)
			}
			if v != verdictOK {
				bad++
			}
			if allEqual(append(slices.Clone(sa.Values), sb.Values...)) {
				v += " (identical)"
			}
			fmt.Fprintf(w, "%-20s %-14s %-34s %-34s %6.3g  %s\n", name, m.name, fmtSummary(sa), fmtSummary(sb), m.bound, v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons not ok", bad)
	}
	return nil
}

// allEqual reports whether every value is the same number, as a virtual
// metric's values are across the reps and runs of one seed.
func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return len(xs) > 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Median, s.Q1, s.Q3, s.N)
}
