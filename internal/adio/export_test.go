package adio

// IsAggregator reports whether this rank is one of the cb_nodes
// aggregators for this file.
func (f *File) IsAggregator() bool {
	return aggIndex(placeAggregators(f.comm, f.hints), f.comm.RankOf(f.rank)) >= 0
}
