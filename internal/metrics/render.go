package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CounterSnap is one counter series in a Snapshot.
type CounterSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Total  int64             `json:"total"`
}

// GaugeSnap is one gauge series in a Snapshot.
type GaugeSnap struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Last    int64             `json:"last"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Samples int64             `json:"samples"`
}

// HistogramSnap is one histogram series in a Snapshot. Bounds are the fixed
// bucket upper bounds; Counts has one more entry than Bounds (the +Inf
// bucket). P50/P95/P99 are exact nearest-rank percentiles.
type HistogramSnap struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Count  int64             `json:"count"`
	Sum    int64             `json:"sum"`
	Min    int64             `json:"min"`
	Max    int64             `json:"max"`
	P50    int64             `json:"p50"`
	P95    int64             `json:"p95"`
	P99    int64             `json:"p99"`
	Bounds []int64           `json:"bounds"`
	Counts []int64           `json:"counts"`
}

// Snapshot is the registry's serializable state, sorted by (name, labels)
// so that encoding it is deterministic. encoding/json renders map keys in
// sorted order, which keeps the Labels maps deterministic too.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Val
	}
	return m
}

// Snapshot captures the registry's current state. A nil registry returns an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	cs := append([]*Counter(nil), r.counters...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].key < cs[j].key })
	for _, c := range cs {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Labels: labelMap(c.labels), Total: c.total})
	}
	gs := append([]*Gauge(nil), r.gauges...)
	sort.Slice(gs, func(i, j int) bool { return gs[i].key < gs[j].key })
	for _, g := range gs {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Labels: labelMap(g.labels),
			Last: g.last, Min: g.min, Max: g.max, Samples: g.samples})
	}
	hs := append([]*Histogram(nil), r.hists...)
	sort.Slice(hs, func(i, j int) bool { return hs[i].key < hs[j].key })
	for _, h := range hs {
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name: h.name, Labels: labelMap(h.labels),
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: h.Percentile(50), P95: h.Percentile(95), P99: h.Percentile(99),
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
		})
	}
	return s
}

// SumCounters sums every counter series with the given name across all
// label sets (e.g. a per-rank counter aggregated over ranks).
func (r *Registry) SumCounters(name string) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for _, c := range r.counters {
		if c.name == name {
			total += c.total
		}
	}
	return total
}

// WriteText writes a plain-text digest of the registry: every series in
// sorted (name, labels) order with integer values only, so the output is
// byte-deterministic for a deterministic run.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		fmt.Fprintln(bw, "metrics: disabled")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "metrics: %d counters, %d gauges, %d histograms\n",
		len(r.counters), len(r.gauges), len(r.hists))
	if len(r.counters) > 0 {
		cs := append([]*Counter(nil), r.counters...)
		sort.Slice(cs, func(i, j int) bool { return cs[i].key < cs[j].key })
		fmt.Fprintf(bw, "counters:\n")
		for _, c := range cs {
			fmt.Fprintf(bw, "  %-58s %14d\n", c.key, c.total)
		}
	}
	if len(r.gauges) > 0 {
		gs := append([]*Gauge(nil), r.gauges...)
		sort.Slice(gs, func(i, j int) bool { return gs[i].key < gs[j].key })
		fmt.Fprintf(bw, "gauges:\n")
		fmt.Fprintf(bw, "  %-58s %12s %12s %12s\n", "GAUGE", "LAST", "MIN", "MAX")
		for _, g := range gs {
			fmt.Fprintf(bw, "  %-58s %12d %12d %12d\n", g.key, g.last, g.min, g.max)
		}
	}
	if len(r.hists) > 0 {
		hs := append([]*Histogram(nil), r.hists...)
		sort.Slice(hs, func(i, j int) bool { return hs[i].key < hs[j].key })
		fmt.Fprintf(bw, "histograms:\n")
		fmt.Fprintf(bw, "  %-58s %8s %14s %12s %12s %12s %12s\n",
			"HISTOGRAM", "COUNT", "SUM", "P50", "P95", "P99", "MAX")
		for _, h := range hs {
			fmt.Fprintf(bw, "  %-58s %8d %14d %12d %12d %12d %12d\n",
				h.key, h.count, h.sum, h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
		}
	}
	return bw.Flush()
}

// Text returns WriteText's output as a string.
func (r *Registry) Text() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}
