package metrics

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

// oraclePercentile is the straightforward nearest-rank definition computed
// from a sorted copy of the samples.
func oraclePercentile(samples []int64, p int) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := int64(len(s))
	rank := (int64(p)*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// TestPercentileProperty hammers Percentile against the sort-based oracle
// over many random sample sets: sizes from 1 to a few thousand, values
// spanning nine orders of magnitude, every interesting percentile.
func TestPercentileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	percentiles := []int{1, 10, 25, 50, 75, 90, 95, 99, 100}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		r := New()
		h := r.Histogram("t_ns", L(KeyLayer, "sim"))
		samples := make([]int64, n)
		for i := range samples {
			v := rng.Int63n(int64(1) << uint(10+rng.Intn(30)))
			samples[i] = v
			h.Observe(v)
		}
		for _, p := range percentiles {
			got, want := h.Percentile(p), oraclePercentile(samples, p)
			if got != want {
				t.Fatalf("trial %d n=%d p%d = %d, oracle %d", trial, n, p, got, want)
			}
		}
		// Interleave queries and observations: the sorted cache must stay
		// coherent after new samples arrive.
		extra := rng.Int63n(1 << 20)
		h.Observe(extra)
		samples = append(samples, extra)
		if got, want := h.Percentile(50), oraclePercentile(samples, 50); got != want {
			t.Fatalf("trial %d post-observe p50 = %d, oracle %d", trial, got, want)
		}
	}
}

// TestHistogramBuckets checks that samples land in the right fixed bucket
// and that summary stats are exact.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.HistogramBuckets("h", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 500, 1001, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 1, 2} // <=10: {5,10}; <=100: {11,100}; <=1000: {500}; +Inf: {1001,5000}
	for i, c := range h.counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], h.counts)
		}
	}
	if h.Count() != 7 || h.Sum() != 5+10+11+100+500+1001+5000 || h.Min() != 5 || h.Max() != 5000 {
		t.Fatalf("stats wrong: count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

// TestLabelMerge: the label SET identifies a series — call-site order and
// duplicate registration must merge into one series.
func TestLabelMerge(t *testing.T) {
	r := New()
	a := r.Counter("bytes", L("layer", "nvm"), L("node", "3"))
	b := r.Counter("bytes", L("node", "3"), L("layer", "nvm"))
	if a != b {
		t.Fatal("label order created two series")
	}
	a.Add(5)
	b.Add(7)
	if a.Total() != 12 {
		t.Fatalf("merged total = %d, want 12", a.Total())
	}
	c := r.Counter("bytes", L("layer", "nvm"), L("node", "4"))
	if c == a {
		t.Fatal("different label values merged")
	}
}

// TestRenderDeterminism: two registries built through different insertion
// orders render byte-identically, in both text and JSON form.
func TestRenderDeterminism(t *testing.T) {
	build := func(reverse bool) *Registry {
		r := New()
		names := []string{"zeta", "alpha", "mid"}
		if reverse {
			names = []string{"mid", "alpha", "zeta"}
		}
		for _, n := range names {
			r.Counter(n, L("layer", "sim")).Add(int64(len(n)))
			r.Gauge(n+"_g", L("layer", "sim")).Set(int64(len(n)))
			h := r.Histogram(n+"_ns", L("layer", "sim"))
			for i := int64(1); i <= 5; i++ {
				h.Observe(i * 1000)
			}
		}
		return r
	}
	var a, b bytes.Buffer
	if err := build(false).WriteText(&a); err != nil {
		t.Fatal(err)
	}
	if err := build(true).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("text render depends on insertion order:\n%s\nvs\n%s", a.String(), b.String())
	}
	ja, err := json.Marshal(build(false).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(build(true).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("JSON snapshot depends on insertion order:\n%s\nvs\n%s", ja, jb)
	}
}

// TestNilSafety: the disabled registry and its nil handles must be inert.
func TestNilSafety(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if c.Total() != 0 {
		t.Fatal("nil counter accumulated")
	}
	g := r.Gauge("y")
	g.Set(9)
	if g.Last() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge accumulated")
	}
	h := r.Histogram("z")
	h.Observe(1)
	if h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if got := r.Text(); got != "metrics: disabled\n" {
		t.Fatalf("nil text = %q", got)
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil snapshot not empty")
	}
	if r.FindCounter("x") != 0 {
		t.Fatal("nil lookup not empty")
	}
}

// TestCounterMonotonic: negative deltas are ignored.
func TestCounterMonotonic(t *testing.T) {
	r := New()
	c := r.Counter("n")
	c.Add(10)
	c.Add(-5)
	if c.Total() != 10 {
		t.Fatalf("total = %d, want 10", c.Total())
	}
}

// TestSums: cross-label aggregation helpers.
func TestSums(t *testing.T) {
	r := New()
	r.Counter("b", L("rank", "0")).Add(3)
	r.Counter("b", L("rank", "1")).Add(4)
	r.Counter("other").Add(100)
	if got := r.SumCounters("b"); got != 7 {
		t.Fatalf("SumCounters = %d, want 7", got)
	}
	r.Histogram("h", L("rank", "0")).Observe(10)
	r.Histogram("h", L("rank", "1")).Observe(20)
	count, sum := r.SumHistograms("h")
	if count != 2 || sum != 30 {
		t.Fatalf("SumHistograms = (%d, %d), want (2, 30)", count, sum)
	}
}
