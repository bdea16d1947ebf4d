package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, m, q3  float64
		wantSpread float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5 / 5.5},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{5, 7}, 4.5, 6, 7.5, 0.5},
		{[]float64{0.93, 1.22, 1.01, 1.05, 0.97, 1.10, 0.99, 1.03, 1.15}, 0.98, 1.03, 1.125, 0.145 / 1.03},
		{[]float64{4}, 4, 4, 4, 0},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if got := median(c.xs); !near(got, c.m) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.m)
		}
		if got := summarize("s", "lower", c.xs).spread(); !near(got, c.wantSpread) {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.wantSpread)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJudge(t *testing.T) {
	lower := func(vs ...float64) summary { return summarize("s", "lower", vs) }
	higher := func(vs ...float64) summary { return summarize("GB/s", "higher", vs) }
	cases := []struct {
		name  string
		a, b  summary
		bound float64
		want  string
	}{
		{"same", lower(10, 10.1, 9.9), lower(10, 10.05, 9.95), 0.1, verdictOK},
		{"slower within bound", lower(10, 10.1, 9.9), lower(10.8, 10.9, 10.7), 0.1, verdictOK},
		{"slower beyond bound", lower(10, 10.1, 9.9), lower(11.5, 11.6, 11.4), 0.1, verdictRegressed},
		{"faster", lower(10, 10.1, 9.9), lower(5, 5.1, 4.9), 0.1, verdictOK},
		{"bandwidth drop", higher(2.9, 2.9, 2.9), higher(2.5, 2.5, 2.5), 0.03, verdictRegressed},
		{"bandwidth gain", higher(2.9, 2.9, 2.9), higher(3.5, 3.5, 3.5), 0.03, verdictOK},
		{"exact metric unchanged", higher(2.9), higher(2.9), 0, verdictOK},
		{"new failure at bound 0", lower(0), lower(0.25), 0, verdictRegressed},
		{"base too noisy", lower(8, 10, 12), lower(10.5, 10.5, 10.5), 0.1, verdictUnresolved},
		{"candidate too noisy", lower(10, 10, 10), lower(8, 10, 13), 0.1, verdictUnresolved},
		{"noisy but every run better", lower(10, 12, 14), lower(5, 6, 7), 0.1, verdictOK},
	}
	for _, c := range cases {
		if got := judge(c.a, c.b, c.bound); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}

	pairs := []struct {
		name string
		a, b summary
		want string
	}{
		{"noisy run, same median", lower(8, 10, 12), lower(6, 10, 14), verdictOK},
		{"slower beyond bound", lower(10, 10, 10), lower(11.5, 11.5, 11.5), verdictUnresolved},
		{"faster", lower(10, 10, 10), lower(5, 5, 5), verdictOK},
		{"bandwidth drop", higher(2.9, 2.9), higher(2.5, 2.5), verdictUnresolved},
	}
	for _, c := range pairs {
		if got := judgePair(c.a, c.b, 0.1); got != c.want {
			t.Errorf("%s: judgePair = %s, want %s", c.name, got, c.want)
		}
	}
}
