package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/mpe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// BenchSchema identifies the benchmark report format.
const BenchSchema = "e10bench/v1"

// BenchScenario is one cell of the fixed regression matrix: its identity
// and the deterministic virtual-time outcomes the compare gate checks.
type BenchScenario struct {
	Name            string  `json:"name"` // "<pattern>/<case>/<scale>"
	Workload        string  `json:"workload"`
	Case            string  `json:"case"`
	Flush           string  `json:"flush,omitempty"`
	Pattern         string  `json:"pattern"` // interleaved | contiguous
	Scale           string  `json:"scale"`   // "<nodes>x<ppn>"
	WallTimeNs      int64   `json:"wall_time_ns"`
	BandwidthGBs    float64 `json:"bandwidth_gbs"`
	NotHiddenSyncNs int64   `json:"not_hidden_sync_ns"`
	SyncedBytes     int64   `json:"synced_bytes"`
	ExchangeBytes   int64   `json:"exchange_bytes"`
}

// BenchReport is the full matrix outcome, serialized as BENCH_<date>.json.
// The simulation is deterministic, so re-running the matrix on the same
// seed must reproduce the file byte for byte (CheckBench).
type BenchReport struct {
	Schema    string          `json:"schema"`
	Seed      int64           `json:"seed"`
	Scenarios []BenchScenario `json:"scenarios"`
}

// benchCell is one named cell of the fixed matrix: its identity fields and
// the ready-to-run spec.
type benchCell struct {
	Name     string
	Workload string
	Case     string
	Flush    string
	Pattern  string
	Scale    string
	Spec     Spec
}

// benchCells enumerates the fixed scenario matrix: {cache disabled, cache
// enabled + flush_immediate, cache enabled + flush_onclose} x {interleaved
// (coll_perf), contiguous (IOR, one segment)} x {2x2, 4x2, 4x4} — 18
// cells, all small enough to finish in host seconds. Tests that need to
// exercise every bench cell under extra observability reuse this list.
func benchCells(seed int64) []benchCell {
	cases := []struct {
		cs    Case
		flush string
	}{
		{CacheDisabled, ""},
		{CacheEnabled, "flush_immediate"},
		{CacheEnabled, "flush_onclose"},
	}
	patterns := []struct {
		name string
		w    workloads.Workload
		last bool
	}{
		{"interleaved", workloads.CollPerf{RunBytes: 64 << 10, RunsY: 4, RunsZ: 4}, false},
		{"contiguous", workloads.IOR{BlockBytes: 1 << 20, Segments: 1}, true},
	}
	scales := []struct{ nodes, ppn int }{{2, 2}, {4, 2}, {4, 4}}

	var cells []benchCell
	for _, sc := range scales {
		scale := fmt.Sprintf("%dx%d", sc.nodes, sc.ppn)
		for _, p := range patterns {
			for _, c := range cases {
				caseName := string(c.cs)
				if c.flush != "" {
					caseName += "+" + c.flush
				}
				spec := DefaultSpec(p.w, c.cs, 4, 2<<20)
				spec.Cluster = Scaled(seed, sc.nodes, sc.ppn)
				spec.NFiles = 2
				spec.ComputeDelay = sim.Second / 4
				spec.IncludeLastSync = p.last
				spec.Metrics = true
				if c.flush != "" {
					spec.FlushFlag = c.flush
				}
				cells = append(cells, benchCell{
					Name:     p.name + "/" + caseName + "/" + scale,
					Workload: p.w.Name(),
					Case:     string(c.cs),
					Flush:    c.flush,
					Pattern:  p.name,
					Scale:    scale,
					Spec:     spec,
				})
			}
		}
	}
	return cells
}

// RunBenchReport runs the fixed scenario matrix and collects the
// deterministic virtual-time outcomes of every cell.
func RunBenchReport(seed int64) (*BenchReport, error) {
	rep := &BenchReport{Schema: BenchSchema, Seed: seed}
	for _, cell := range benchCells(seed) {
		res, err := Run(cell.Spec)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", cell.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, BenchScenario{
			Name:            cell.Name,
			Workload:        cell.Workload,
			Case:            cell.Case,
			Flush:           cell.Flush,
			Pattern:         cell.Pattern,
			Scale:           cell.Scale,
			WallTimeNs:      int64(res.WallTime),
			BandwidthGBs:    res.BandwidthGBs,
			NotHiddenSyncNs: int64(res.Breakdown[mpe.PhaseNotHiddenSync]),
			SyncedBytes:     res.Metrics.SumCounters("cache_synced_bytes_total"),
			ExchangeBytes:   res.Metrics.SumCounters("adio_exchange_bytes_total"),
		})
	}
	return rep, nil
}

// MarshalBench renders a report as the committed JSON file.
func MarshalBench(rep *BenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseBench decodes a BENCH_*.json file.
func ParseBench(data []byte) (*BenchReport, error) {
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("bench: unsupported schema %q (want %q)", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// CompareBenchReports checks cur against the committed baseline: every
// baseline scenario must be present, and no scenario's virtual completion
// time may regress by more than tolPct percent. The returned error lists
// every violation; nil means the gate passes.
func CompareBenchReports(base, cur *BenchReport, tolPct int64) error {
	current := make(map[string]BenchScenario, len(cur.Scenarios))
	for _, s := range cur.Scenarios {
		current[s.Name] = s
	}
	var problems []string
	names := make([]string, 0, len(base.Scenarios))
	for _, s := range base.Scenarios {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	baseline := make(map[string]BenchScenario, len(base.Scenarios))
	for _, s := range base.Scenarios {
		baseline[s.Name] = s
	}
	for _, name := range names {
		b := baseline[name]
		c, ok := current[name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: missing from current run", name))
			continue
		}
		limit := b.WallTimeNs + b.WallTimeNs*tolPct/100
		if c.WallTimeNs > limit {
			problems = append(problems, fmt.Sprintf(
				"%s: wall time regressed %d ns -> %d ns (limit %d ns, +%d%%)",
				name, b.WallTimeNs, c.WallTimeNs, limit, tolPct))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench regression:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// CheckBench is the matrix gate: cur, marshalled, must equal the committed
// baseline file byte for byte. The error names every scenario that is
// missing, new, or differs from the baseline in any field.
func CheckBench(baseline []byte, cur *BenchReport) error {
	got, err := MarshalBench(cur)
	if err != nil {
		return err
	}
	if bytes.Equal(got, baseline) {
		return nil
	}
	base, err := ParseBench(baseline)
	if err != nil {
		return err
	}
	var problems []string
	current := make(map[string]BenchScenario, len(cur.Scenarios))
	for _, c := range cur.Scenarios {
		current[c.Name] = c
	}
	for _, b := range base.Scenarios {
		c, ok := current[b.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: missing from current run", b.Name))
		case c != b:
			problems = append(problems, fmt.Sprintf("%s: %+v, baseline %+v", b.Name, c, b))
		}
		delete(current, b.Name)
	}
	for _, c := range cur.Scenarios {
		if _, ok := current[c.Name]; ok {
			problems = append(problems, fmt.Sprintf("%s: not in the baseline", c.Name))
		}
	}
	if len(problems) == 0 {
		problems = append(problems, "the header, scenario order or file layout differs")
	}
	return fmt.Errorf("bench drift from the baseline:\n  %s", strings.Join(problems, "\n  "))
}
