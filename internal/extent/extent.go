// Package extent provides byte-range (offset, length) arithmetic and a
// coalescing interval set. It underpins sparse file stores, cache
// dirty-extent tracking and byte-range lock management.
package extent

import (
	"fmt"
	"sort"
)

// Extent is a half-open byte range [Off, Off+Len).
type Extent struct {
	Off int64
	Len int64
}

// End returns the exclusive end offset.
func (e Extent) End() int64 { return e.Off + e.Len }

// Empty reports whether the extent covers no bytes.
func (e Extent) Empty() bool { return e.Len <= 0 }

// Contains reports whether offset o lies inside the extent.
func (e Extent) Contains(o int64) bool { return o >= e.Off && o < e.End() }

// Overlaps reports whether e and o share at least one byte.
func (e Extent) Overlaps(o Extent) bool {
	return !e.Empty() && !o.Empty() && e.Off < o.End() && o.Off < e.End()
}

// Intersect returns the overlapping part of e and o (possibly empty).
func (e Extent) Intersect(o Extent) Extent {
	off := max(e.Off, o.Off)
	end := min(e.End(), o.End())
	if end <= off {
		return Extent{Off: off, Len: 0}
	}
	return Extent{Off: off, Len: end - off}
}

// String implements fmt.Stringer.
func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Off, e.End()) }

// Set is a sorted, coalesced set of non-overlapping extents.
type Set struct {
	ext []Extent // sorted by Off; no overlaps, no touching neighbours
}

// Add inserts e into the set, merging with overlapping or adjacent extents.
func (s *Set) Add(e Extent) {
	if e.Empty() {
		return
	}
	// Find the window of extents that overlap or touch e.
	i := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() >= e.Off })
	j := i
	for j < len(s.ext) && s.ext[j].Off <= e.End() {
		j++
	}
	s.ext = mergeInto(s.ext, i, j, e)
}

// mergeInto replaces ext[i:j] with the union of e and those extents. The
// edit is done in place when capacity allows: Add sits on the per-write
// path of every store, cache and lock table, and allocating a fresh slice
// per insertion is quadratic churn on kilo-extent sets.
func mergeInto(ext []Extent, i, j int, e Extent) []Extent {
	lo, hi := e.Off, e.End()
	for k := i; k < j; k++ {
		lo = min(lo, ext[k].Off)
		hi = max(hi, ext[k].End())
	}
	merged := Extent{Off: lo, Len: hi - lo}
	switch {
	case j-i == 1:
		// Common case (overlap/extend one neighbour, or replace it): no
		// element moves at all.
		ext[i] = merged
		return ext
	case j-i > 1:
		// Net shrink: keep the prefix, drop the excess in place.
		ext[i] = merged
		n := copy(ext[i+1:], ext[j:])
		return ext[:i+1+n]
	default:
		// Net insert at i.
		ext = append(ext, Extent{})
		copy(ext[i+1:], ext[i:])
		ext[i] = merged
		return ext
	}
}

// Extents returns a copy of the extents in ascending offset order.
func (s *Set) Extents() []Extent {
	out := make([]Extent, len(s.ext))
	copy(out, s.ext)
	return out
}

// Len returns the number of disjoint extents.
func (s *Set) Len() int { return len(s.ext) }

// At returns the i-th extent in ascending offset order, 0 <= i < Len():
// a walk over the set without the copy Extents makes.
func (s *Set) At(i int) Extent { return s.ext[i] }

// TotalBytes returns the number of bytes covered.
func (s *Set) TotalBytes() int64 {
	var n int64
	for _, e := range s.ext {
		n += e.Len
	}
	return n
}

// Covers reports whether every byte of e is in the set.
func (s *Set) Covers(e Extent) bool {
	if e.Empty() {
		return true
	}
	i := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() > e.Off })
	return i < len(s.ext) && s.ext[i].Off <= e.Off && s.ext[i].End() >= e.End()
}

// Overlaps reports whether any byte of e is in the set.
func (s *Set) Overlaps(e Extent) bool {
	if e.Empty() {
		return false
	}
	i := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() > e.Off })
	return i < len(s.ext) && s.ext[i].Off < e.End()
}

// Remove deletes e's byte range from the set, splitting extents as
// needed. Like Add, the edit is in place: only the extents overlapping e
// are touched, instead of rebuilding the whole slice per call.
func (s *Set) Remove(e Extent) {
	if e.Empty() || len(s.ext) == 0 {
		return
	}
	i := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() > e.Off })
	if i == len(s.ext) || s.ext[i].Off >= e.End() {
		return // nothing overlaps
	}
	j := i
	for j < len(s.ext) && s.ext[j].Off < e.End() {
		j++
	}
	// Boundary remainders of the first and last overlapped extents.
	var left, right Extent
	hasLeft := s.ext[i].Off < e.Off
	if hasLeft {
		left = Extent{Off: s.ext[i].Off, Len: e.Off - s.ext[i].Off}
	}
	hasRight := s.ext[j-1].End() > e.End()
	if hasRight {
		right = Extent{Off: e.End(), Len: s.ext[j-1].End() - e.End()}
	}
	keep := 0
	if hasLeft {
		keep++
	}
	if hasRight {
		keep++
	}
	switch d := (j - i) - keep; {
	case d > 0: // net shrink: slide the tail left
		n := copy(s.ext[i+keep:], s.ext[j:])
		s.ext = s.ext[:i+keep+n]
	case d < 0: // d == -1: a mid-extent split grows the set by one
		s.ext = append(s.ext, Extent{})
		copy(s.ext[i+2:], s.ext[i+1:])
	}
	pos := i
	if hasLeft {
		s.ext[pos] = left
		pos++
	}
	if hasRight {
		s.ext[pos] = right
	}
}

// Gaps returns the sub-ranges of e not covered by the set, in order.
func (s *Set) Gaps(e Extent) []Extent {
	if e.Empty() {
		return nil
	}
	var gaps []Extent
	cur := e.Off
	for _, x := range s.ext {
		if x.End() <= cur {
			continue
		}
		if x.Off >= e.End() {
			break
		}
		if x.Off > cur {
			gaps = append(gaps, Extent{Off: cur, Len: x.Off - cur})
		}
		if x.End() > cur {
			cur = x.End()
		}
	}
	if cur < e.End() {
		gaps = append(gaps, Extent{Off: cur, Len: e.End() - cur})
	}
	return gaps
}

// Clear empties the set.
func (s *Set) Clear() { s.ext = nil }

// Max returns the largest covered offset+1, or 0 for an empty set.
func (s *Set) Max() int64 {
	if len(s.ext) == 0 {
		return 0
	}
	return s.ext[len(s.ext)-1].End()
}

// Validate checks the internal invariants (sortedness, no overlap or
// adjacency) and returns an error describing the first violation.
func (s *Set) Validate() error {
	for i, e := range s.ext {
		if e.Len <= 0 {
			return fmt.Errorf("extent %d empty: %v", i, e)
		}
		if i > 0 && s.ext[i-1].End() >= e.Off {
			return fmt.Errorf("extents %d and %d overlap or touch: %v %v", i-1, i, s.ext[i-1], e)
		}
	}
	return nil
}
