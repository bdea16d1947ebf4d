package mpiwrap

// Outstanding reports how many files are internally held open.
func (w *Wrapper) Outstanding() int { return len(w.outstanding) }
