// Package metrics is a deterministic, label-aware metrics registry for the
// simulated cluster: monotonic counters, last-value gauges with high/low
// water marks, and fixed-bucket histograms with exact nearest-rank
// percentiles.
//
// Like internal/trace, the package deliberately imports nothing from the
// simulation: values are raw int64 (virtual nanoseconds, bytes, counts),
// which lets the simulation kernel own a *Registry that every layer above
// it reaches without import cycles.
//
// Determinism is the point: the simulation is single-threaded and seeded,
// metrics are registered in first-use order but always rendered in sorted
// (name, labels) order with integer arithmetic only, so two runs with the
// same seed produce byte-identical output. That turns a metrics dump into a
// regression oracle (see the BENCH_*.json baselines).
//
// All methods are nil-receiver safe: a nil *Registry is the disabled
// registry, its constructors return nil handles, and recording through a
// nil handle is a single branch. Disabled instrumentation therefore costs
// one pointer test per site.
package metrics

import (
	"sort"
	"strings"
)

// Label is one key/value annotation on a metric. The set of labels (not
// their order at the call site) identifies a series: labels are sorted by
// key at registration, so two sites naming the same set merge into one
// series regardless of argument order.
type Label struct {
	Key string
	Val string
}

// L builds a Label; it keeps call sites compact.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// Well-known label keys used across the instrumented layers.
const (
	KeyLayer = "layer" // sim | netsim | mpi | adio | core | nvm | pfs
	KeyRank  = "rank"  // MPI rank id
	KeyNode  = "node"  // compute node id
	KeyPhase = "phase" // MPE phase name
	KeyOp    = "op"    // operation name (read/write, collective kind, ...)
)

// canonKey renders the identity of a series: "name{k=v,k=v}" with labels
// sorted by key. The rendered form doubles as the sort key for output.
func canonKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Val)
	}
	sb.WriteByte('}')
	return sb.String()
}

// sortLabels returns a sorted copy of labels (by key, then value).
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// Registry holds all registered series. The zero value is not usable;
// create registries with New. A nil *Registry is the disabled registry.
type Registry struct {
	counters   []*Counter
	gauges     []*Gauge
	hists      []*Histogram
	counterIdx map[string]*Counter
	gaugeIdx   map[string]*Gauge
	histIdx    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counterIdx: make(map[string]*Counter),
		gaugeIdx:   make(map[string]*Gauge),
		histIdx:    make(map[string]*Histogram),
	}
}

// Counter registers (or looks up) the counter series named name with the
// given labels. A nil registry returns a nil handle, which is safe to use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := sortLabels(labels)
	key := canonKey(name, ls)
	if c, ok := r.counterIdx[key]; ok {
		return c
	}
	c := &Counter{name: name, labels: ls, key: key}
	r.counters = append(r.counters, c)
	r.counterIdx[key] = c
	return c
}

// Gauge registers (or looks up) the gauge series named name.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	ls := sortLabels(labels)
	key := canonKey(name, ls)
	if g, ok := r.gaugeIdx[key]; ok {
		return g
	}
	g := &Gauge{name: name, labels: ls, key: key}
	r.gauges = append(r.gauges, g)
	r.gaugeIdx[key] = g
	return g
}

// DefBuckets are the default histogram bucket upper bounds, tuned for
// virtual-time durations in nanoseconds: powers of four from 1 µs to ~17 s,
// with an implicit +Inf bucket above the last bound.
var DefBuckets = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000, // 1µs .. 256µs
	1_024_000, 4_096_000, 16_384_000, 65_536_000, 262_144_000, // ~1ms .. ~262ms
	1_048_576_000, 4_194_304_000, 16_777_216_000, // ~1s .. ~17s
}

// Histogram registers (or looks up) a histogram with the default duration
// buckets.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, DefBuckets, labels...)
}

// HistogramBuckets registers (or looks up) a histogram with the given
// ascending bucket upper bounds (an implicit +Inf bucket is appended). The
// bounds are fixed at first registration; later lookups reuse them.
func (r *Registry) HistogramBuckets(name string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ls := sortLabels(labels)
	key := canonKey(name, ls)
	if h, ok := r.histIdx[key]; ok {
		return h
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, labels: ls, key: key, bounds: b, counts: make([]int64, len(b)+1)}
	r.hists = append(r.hists, h)
	r.histIdx[key] = h
	return h
}

// Counter is a monotonically increasing series.
type Counter struct {
	name   string
	labels []Label
	key    string
	total  int64
}

// Add increases the counter by n (negative deltas are ignored: counters are
// monotonic). Safe on a nil handle.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.total += n
}

// Inc increases the counter by one. Safe on a nil handle.
func (c *Counter) Inc() { c.Add(1) }

// Total returns the accumulated value (0 on a nil handle).
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.total
}

// Gauge is a last-value series with high and low water marks.
type Gauge struct {
	name    string
	labels  []Label
	key     string
	set     bool
	last    int64
	max     int64
	min     int64
	samples int64
}

// Set records the gauge's new value. Safe on a nil handle.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	if !g.set {
		g.set, g.max, g.min = true, v, v
	}
	g.last = v
	g.samples++
	if v > g.max {
		g.max = v
	}
	if v < g.min {
		g.min = v
	}
}

// Histogram is a fixed-bucket distribution that additionally retains every
// sample, so percentiles are exact (nearest-rank over the sorted samples,
// integer arithmetic only) rather than bucket-interpolated. The simulation
// records at most a few hundred thousand samples per run, so retention is
// cheap; the buckets exist for compact rendering and cross-run diffing.
type Histogram struct {
	name    string
	labels  []Label
	key     string
	bounds  []int64 // ascending upper bounds (v <= bound falls in bucket)
	counts  []int64 // len(bounds)+1; last is the +Inf bucket
	count   int64
	sum     int64
	min     int64
	max     int64
	samples []int64
	sorted  bool
}

// Observe records one sample. Safe on a nil handle.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i]++
	h.samples = append(h.samples, v)
	h.sorted = false
}

// Percentile returns the exact p-th percentile (nearest-rank definition:
// the smallest sample v such that at least ceil(p/100 * n) samples are
// <= v), computed over the retained samples with integer math. p is
// clamped to [1, 100]; an empty histogram returns 0.
func (h *Histogram) Percentile(p int) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p < 1 {
		p = 1
	}
	if p > 100 {
		p = 100
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	n := int64(len(h.samples))
	rank := (int64(p)*n + 99) / 100 // ceil(p*n/100)
	if rank < 1 {
		rank = 1
	}
	return h.samples[rank-1]
}
