package fault

// Stats returns the per-fault lifecycle records, in schedule order.
func (inj *Injector) Stats() []Stat {
	out := make([]Stat, len(inj.stats))
	copy(out, inj.stats)
	return out
}

// Active returns how many faults are currently applied but not cleared.
func (inj *Injector) Active() int {
	n := 0
	for _, st := range inj.stats {
		if st.Applied && !st.Cleared {
			n++
		}
	}
	return n
}
