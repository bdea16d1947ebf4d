package adio

// IsAggregator reports whether this rank is one of the cb_nodes
// aggregators for this file.
func (f *File) IsAggregator() bool { return f.myAgg >= 0 }
