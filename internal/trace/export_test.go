package trace

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil }

// CounterMax returns the high-water mark of a counter series, or 0 when the
// series was never recorded.
func (t *Tracer) CounterMax(tk TrackID, name string) int64 {
	if t == nil {
		return 0
	}
	if i, ok := t.counterIdx[counterKey{track: tk, name: name}]; ok {
		return t.counters[i].max
	}
	return 0
}
