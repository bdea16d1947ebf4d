package main

import (
	"math"
	"sort"
)

// summary is one metric's sample in a run: its values and their median and
// quartiles. Timings are reported this way, with n, and never as a tail
// percentile: a workload runs from 5 to about 12 timed reps, so no
// percentile above the median has ten samples beyond it.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// summarize computes a summary of values.
func summarize(unit, better string, values []float64) summary {
	q1, med, q3 := quartiles(values)
	return summary{Unit: unit, Better: better, N: len(values), Median: med, Q1: q1, Q3: q3,
		Values: append([]float64(nil), values...)}
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so the benchmark's spread matches the one computed
// over its runs. A single value is its own quartiles; no values give zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle of xs (the mean of the middle two for even n).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Verdicts of a comparison between a base run and a candidate run.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares candidate b against base a for a metric whose regression
// bound is bound (a share of a's median), with each side's spread taken as
// its run-to-run spread. When either side's spread is wider than the bound
// the medians cannot resolve a change of that size, so the verdict is
// unresolved — unless every value of b is better than every value of a.
// Otherwise b regressed when its median is worse than a's by more than the
// bound.
func judge(a, b summary, bound float64) string {
	if a.spread() > bound || b.spread() > bound {
		if len(a.Values) > 0 && len(b.Values) > 0 && allBetter(a.Values, b.Values, a.Better != "higher") {
			return verdictOK
		}
		return verdictUnresolved
	}
	if worseBeyond(a, b, bound) {
		return verdictRegressed
	}
	return verdictOK
}

// judgePair compares a host metric from a single run a side. One process's
// own spread does not show how far a second process on the same code would
// land, so it is not consulted; and a median worse by more than the bound
// cannot be told from a machine that slowed down, so it is unresolved, not
// regressed.
func judgePair(a, b summary, bound float64) string {
	if worseBeyond(a, b, bound) {
		return verdictUnresolved
	}
	return verdictOK
}

// worseBeyond reports whether b's median is worse than a's by more than
// bound, a share of a's median.
func worseBeyond(a, b summary, bound float64) bool {
	worse := b.Median - a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	return worse > bound*math.Abs(a.Median)
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	aMin, aMax := minMax(a)
	bMin, bMax := minMax(b)
	if lower {
		return bMax < aMin
	}
	return bMin > aMax
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}
