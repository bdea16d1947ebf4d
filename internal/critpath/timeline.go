package critpath

import (
	"sort"

	"repro/internal/trace"
)

// TimelineSchema versions the run timeline; its Markdown header names it.
const TimelineSchema = "e10timeline/v1"

// Series is one named time series sampled at every bucket end.
type Series struct {
	Name   string
	Values []int64
}

// Timeline is a compact interval-sampled view of one run: every counter the
// trace recorded (cache occupancy, queue depths, dirty bytes, per-tenant
// quota pressure) summed across tracks and carried forward to each bucket
// end, plus derived in-flight series. Like the critical path it is built
// post-hoc from the trace, so it can never perturb virtual time.
type Timeline struct {
	WallNs   int64
	Buckets  int
	BucketNs []int64 // bucket end times
	Series   []Series
}

// DefaultTimelineBuckets is the bucket count CLIs use for `-timeline` when
// the user does not pick one.
const DefaultTimelineBuckets = 24

// BuildTimeline samples the trace into the given number of buckets.
func BuildTimeline(tr *trace.Tracer, wallNs int64, buckets int) *Timeline {
	if buckets <= 0 {
		buckets = DefaultTimelineBuckets
	}
	tl := &Timeline{WallNs: wallNs, Buckets: buckets}
	tl.BucketNs = make([]int64, buckets)
	for b := 0; b < buckets; b++ {
		tl.BucketNs[b] = wallNs * int64(b+1) / int64(buckets)
	}

	type sample struct {
		ts, val int64
	}
	type ckey struct {
		track trace.TrackID
		name  string
	}
	counters := make(map[ckey][]sample)
	type flight struct {
		start, end int64
	}
	var pairs, colls []flight
	openP := make(map[uint64]int64)
	tenant := make([]int64, 0, 16)
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindCounter:
			k := ckey{track: ev.Track, name: ev.Name}
			counters[k] = append(counters[k], sample{ts: ev.Start, val: ev.Value})
		case trace.KindSpan:
			if ev.Cat == "mpi" {
				colls = append(colls, flight{start: ev.Start, end: ev.Start + ev.Dur})
			}
		case trace.KindAsyncBegin:
			if ev.Cat == "mpi" && ev.Name == "p2p" {
				openP[ev.ID] = ev.Start
			}
		case trace.KindAsyncEnd:
			if ev.Cat == "mpi" && ev.Name == "p2p" {
				if s, ok := openP[ev.ID]; ok {
					delete(openP, ev.ID)
					pairs = append(pairs, flight{start: s, end: ev.Start})
				}
			}
		case trace.KindInstant:
			if ev.Cat == "tenant" {
				tenant = append(tenant, ev.Start)
			}
		}
	}

	// Counters: per name, sum the carried-forward last sample of every track.
	agg := make(map[string][]int64)
	for k, samples := range counters {
		vals := agg[k.name]
		if vals == nil {
			vals = make([]int64, buckets)
			agg[k.name] = vals
		}
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].ts < samples[j].ts })
		i := 0
		var last int64
		for b := 0; b < buckets; b++ {
			for i < len(samples) && samples[i].ts <= tl.BucketNs[b] {
				last = samples[i].val
				i++
			}
			vals[b] += last
		}
	}
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tl.Series = append(tl.Series, Series{Name: n, Values: agg[n]})
	}

	inflight := func(fs []flight) []int64 {
		vals := make([]int64, buckets)
		for _, f := range fs {
			for b := 0; b < buckets; b++ {
				te := tl.BucketNs[b]
				if f.start <= te && te < f.end {
					vals[b]++
				}
			}
		}
		return vals
	}
	perBucket := func(ts []int64) []int64 {
		vals := make([]int64, buckets)
		for _, t := range ts {
			for b := 0; b < buckets; b++ {
				lo := int64(0)
				if b > 0 {
					lo = tl.BucketNs[b-1]
				}
				if lo < t && t <= tl.BucketNs[b] || (b == 0 && t == 0) {
					vals[b]++
					break
				}
			}
		}
		return vals
	}
	tl.Series = append(tl.Series,
		Series{Name: "colls_inflight", Values: inflight(colls)},
		Series{Name: "p2p_inflight", Values: inflight(pairs)},
		Series{Name: "tenant_events", Values: perBucket(tenant)},
	)
	sort.SliceStable(tl.Series, func(i, j int) bool { return tl.Series[i].Name < tl.Series[j].Name })
	return tl
}
