package metrics

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Last returns the most recent value (0 on a nil or never-set handle).
func (g *Gauge) Last() int64 {
	if g == nil {
		return 0
	}
	return g.last
}

// Max returns the high-water mark.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// FindCounter returns the total of the named counter series, or 0 when it
// was never registered. Lookup order of labels does not matter.
func (r *Registry) FindCounter(name string, labels ...Label) int64 {
	if r == nil {
		return 0
	}
	if c, ok := r.counterIdx[canonKey(name, sortLabels(labels))]; ok {
		return c.total
	}
	return 0
}

// SumHistograms aggregates count and sum over every histogram series with
// the given name.
func (r *Registry) SumHistograms(name string) (count, sum int64) {
	if r == nil {
		return 0, 0
	}
	for _, h := range r.hists {
		if h.name == name {
			count += h.count
			sum += h.sum
		}
	}
	return count, sum
}
