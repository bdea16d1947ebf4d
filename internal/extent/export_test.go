package extent

import "fmt"

// Union returns the smallest extent covering both e and o. The two must
// overlap or touch; otherwise Union panics.
func (e Extent) Union(o Extent) Extent {
	if !e.Overlaps(o) && e.End() != o.Off && o.End() != e.Off {
		panic(fmt.Sprintf("extent: union of disjoint extents %v and %v", e, o))
	}
	off := min(e.Off, o.Off)
	end := max(e.End(), o.End())
	return Extent{Off: off, Len: end - off}
}

// Covers reports whether e fully contains o (empty extents are covered).
func (e Extent) Covers(o Extent) bool {
	return o.Empty() || (e.Off <= o.Off && e.End() >= o.End())
}
