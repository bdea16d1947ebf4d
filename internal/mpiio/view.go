// Package mpiio is the user-facing MPI-IO layer: MPI_File_open/close/sync,
// file views over flattened datatypes, collective writes
// (MPI_File_write_all) that dispatch into the adio two-phase machinery, and
// independent reads/writes. It is the surface through which the benchmarks
// and the MPIWRAP library drive the system.
package mpiio

import (
	"fmt"

	"repro/internal/extent"
)

// FlatType is a flattened MPI datatype: the byte segments covered within
// one type extent plus the extent (stride) itself. ROMIO flattens derived
// datatypes to exactly this representation before doing I/O.
type FlatType struct {
	Segs   []extent.Extent // within [0, Extent), sorted, non-overlapping
	Extent int64           // total span of one instance of the type
}

// Contiguous returns a flat type covering n contiguous bytes.
func Contiguous(n int64) FlatType {
	return FlatType{Segs: []extent.Extent{{Off: 0, Len: n}}, Extent: n}
}

// Vector returns a flat type of count blocks of blockLen bytes separated by
// stride bytes (MPI_Type_vector over a byte etype).
func Vector(count int, blockLen, stride int64) FlatType {
	ft := FlatType{Extent: int64(count-1)*stride + blockLen}
	for i := 0; i < count; i++ {
		ft.Segs = append(ft.Segs, extent.Extent{Off: int64(i) * stride, Len: blockLen})
	}
	return ft
}

// Subarray3D builds the flattened filetype of a 3D block subarray of
// bytes (MPI_Type_create_subarray with a byte etype, C order with x
// fastest): gsizes are the global array dimensions, lsizes the local
// block dimensions and starts the block's origin. The result is the
// lsizes[1]*lsizes[2] contiguous x-runs the block flattens to — exactly
// the pattern coll_perf writes.
func Subarray3D(gsizes, lsizes, starts [3]int64) (FlatType, error) {
	for d := 0; d < 3; d++ {
		if gsizes[d] <= 0 || lsizes[d] <= 0 || starts[d] < 0 {
			return FlatType{}, fmt.Errorf("mpiio: subarray dim %d: invalid sizes g=%d l=%d s=%d",
				d, gsizes[d], lsizes[d], starts[d])
		}
		if starts[d]+lsizes[d] > gsizes[d] {
			return FlatType{}, fmt.Errorf("mpiio: subarray dim %d exceeds global size", d)
		}
	}
	gx, gy := gsizes[0], gsizes[1]
	ft := FlatType{Extent: gsizes[0] * gsizes[1] * gsizes[2]}
	for z := int64(0); z < lsizes[2]; z++ {
		for y := int64(0); y < lsizes[1]; y++ {
			off := ((starts[2]+z)*gy+(starts[1]+y))*gx + starts[0]
			ft.Segs = append(ft.Segs, extent.Extent{Off: off, Len: lsizes[0]})
		}
	}
	return ft, nil
}

// Size returns the number of data bytes in one type instance.
func (t FlatType) Size() int64 {
	var n int64
	for _, s := range t.Segs {
		n += s.Len
	}
	return n
}

// Validate checks the flat type invariants.
func (t FlatType) Validate() error {
	var prev extent.Extent
	for i, s := range t.Segs {
		if s.Len <= 0 {
			return fmt.Errorf("mpiio: flat type segment %d empty", i)
		}
		if i > 0 && prev.End() > s.Off {
			return fmt.Errorf("mpiio: flat type segments %d,%d overlap", i-1, i)
		}
		if s.End() > t.Extent {
			return fmt.Errorf("mpiio: segment %d exceeds type extent", i)
		}
		prev = s
	}
	return nil
}

// View is an MPI-IO file view: data starts at displacement Disp and is laid
// out according to the tiled filetype. View offsets address only the
// visible bytes.
type View struct {
	Disp     int64
	Filetype FlatType
}

// DefaultView exposes the whole file from byte 0.
func DefaultView() View {
	return View{Disp: 0, Filetype: FlatType{}}
}

// isDefault reports whether the view is the identity mapping.
func (v View) isDefault() bool { return len(v.Filetype.Segs) == 0 }

// maxExtents bounds the extents Map returns for the range [vo, vo+n) of
// filetype ft: one, plus, for every tile the range touches, the segments
// that do not continue the segment before them (the previous tile's last
// one for the first), and never more than n.
func maxExtents(ft FlatType, size, vo, n int64) int64 {
	var breaks int64
	prevEnd := ft.Segs[len(ft.Segs)-1].End() - ft.Extent
	for _, s := range ft.Segs {
		if s.Off != prevEnd {
			breaks++
		}
		prevEnd = s.End()
	}
	tiles := (vo+n-1)/size - vo/size + 1
	if breaks > 0 && tiles > (n-1)/breaks {
		return n
	}
	return min(n, tiles*breaks+1)
}

// Map translates the view-space byte range [vo, vo+n) into file extents,
// in ascending file offset order with adjacent extents merged.
func (v View) Map(vo, n int64) ([]extent.Extent, error) {
	if vo < 0 || n < 0 {
		return nil, fmt.Errorf("mpiio: negative view range (%d,%d)", vo, n)
	}
	if n == 0 {
		return nil, nil
	}
	if v.isDefault() {
		return []extent.Extent{{Off: v.Disp + vo, Len: n}}, nil
	}
	ft := v.Filetype
	size := ft.Size()
	if size <= 0 {
		return nil, fmt.Errorf("mpiio: filetype has no data bytes")
	}
	out := make([]extent.Extent, 0, maxExtents(ft, size, vo, n))
	appendExt := func(e extent.Extent) {
		if len(out) > 0 && out[len(out)-1].End() == e.Off {
			out[len(out)-1].Len += e.Len
			return
		}
		out = append(out, e)
	}
	tile := vo / size
	within := vo - tile*size // data bytes to skip inside the tile
	remaining := n
	for remaining > 0 {
		base := v.Disp + tile*ft.Extent
		var skipped int64
		for _, s := range ft.Segs {
			if remaining == 0 {
				break
			}
			segStart := skipped
			skipped += s.Len
			if within >= skipped {
				continue // fully before our start
			}
			intoSeg := int64(0)
			if within > segStart {
				intoSeg = within - segStart
			}
			take := s.Len - intoSeg
			if take > remaining {
				take = remaining
			}
			appendExt(extent.Extent{Off: base + s.Off + intoSeg, Len: take})
			remaining -= take
		}
		tile++
		within = 0
	}
	return out, nil
}
