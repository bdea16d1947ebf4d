// Package store provides the byte-payload backends used by the simulated
// file systems. MemStore keeps real data in fixed-size pages so integration
// tests can assert byte-exact end-to-end correctness of the collective
// write and cache flush paths; each of its operations costs O(bytes it
// touches), however much the file already holds. NullStore tracks only
// written extents so the 32 GB evaluation runs execute the identical
// control flow without allocating payload memory.
package store

import (
	"fmt"

	"repro/internal/extent"
)

// Store records the logical content of one file.
type Store interface {
	// WriteAt records a write of length len(data) bytes, or of size bytes
	// when data is nil (metadata-only write).
	WriteAt(data []byte, off, size int64)
	// ReadAt fills buf from the store. Bytes never written read as zero.
	// Metadata-only stores return zeros for all content.
	ReadAt(buf []byte, off int64)
	// Written returns the set of extents ever written.
	Written() *extent.Set
	// Size returns the file size (highest written offset, or the size set
	// by Truncate, whichever is larger).
	Size() int64
	// Truncate sets the file size; shrinking discards content beyond size.
	Truncate(size int64)
}

// Factory creates a Store for a newly created file.
type Factory func() Store

// PayloadBacked marks stores that hold real bytes (MemStore); consumers use
// it to decide whether reading back content is meaningful.
type PayloadBacked interface{ payloadBacked() }

func (m *MemStore) payloadBacked() {}

// NewMem is a Factory for MemStore.
func NewMem() Store { return &MemStore{} }

// NewNull is a Factory for NullStore.
func NewNull() Store { return &NullStore{} }

// pageSize is MemStore's allocation grain. It is a multiple of
// ChecksumChunk, so a checksum chunk never straddles two pages. Measured
// on readback_64 (EXPERIMENTS.md, "Payload path in O(bytes touched)"),
// 4 KiB and 16 KiB pages were slower and 256 KiB pages no faster, while
// rounding sparse stores up further.
const pageSize int64 = 64 << 10

// MemStore holds real file bytes in fixed-size pages, each allocated on
// the first write that carries data into it. Every operation costs
// O(bytes it touches): a write copies into the pages it covers, a read
// copies out of them (zero-filling missing pages), and neither depends on
// how much the file already holds.
type MemStore struct {
	pages   map[int64][]byte // page index -> pageSize bytes
	written extent.Set
	size    int64
}

// WriteAt implements Store. A nil-data write clears the bytes it covers
// and allocates no page.
func (m *MemStore) WriteAt(data []byte, off, size int64) {
	if (data != nil && int64(len(data)) != size) || size < 0 {
		panic(fmt.Sprintf("store: data length %d != size %d", len(data), size))
	}
	if size == 0 {
		return
	}
	m.written.Add(extent.Extent{Off: off, Len: size})
	if off+size > m.size {
		m.size = off + size
	}
	for pos, end := off, off+size; pos < end; {
		pi, po := pos/pageSize, pos%pageSize
		n := min(pageSize-po, end-pos)
		page := m.pages[pi]
		if data == nil {
			if page != nil {
				clear(page[po : po+n])
			}
		} else {
			if page == nil {
				if m.pages == nil {
					m.pages = map[int64][]byte{}
				}
				page = make([]byte, pageSize)
				m.pages[pi] = page
			}
			copy(page[po:po+n], data[pos-off:])
		}
		pos += n
	}
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(buf []byte, off int64) {
	for pos, end := off, off+int64(len(buf)); pos < end; {
		pi, po := pos/pageSize, pos%pageSize
		n := min(pageSize-po, end-pos)
		dst := buf[pos-off : pos-off+n]
		if page := m.pages[pi]; page != nil {
			copy(dst, page[po:])
		} else {
			clear(dst)
		}
		pos += n
	}
}

// Written implements Store.
func (m *MemStore) Written() *extent.Set { return &m.written }

// Size implements Store.
func (m *MemStore) Size() int64 { return m.size }

// Truncate implements Store. Shrinking drops the pages past size and
// clears the tail of the boundary page, so a later grow reads zeros.
func (m *MemStore) Truncate(size int64) {
	if size >= m.size {
		m.size = size
		return
	}
	m.size = size
	m.written.Remove(extent.Extent{Off: size, Len: 1<<62 - size})
	for pi := range m.pages {
		if pi*pageSize >= size {
			delete(m.pages, pi)
		}
	}
	if page := m.pages[size/pageSize]; page != nil {
		clear(page[size%pageSize:])
	}
}

// NullStore tracks only extents and size; content reads as zero.
type NullStore struct {
	written extent.Set
	size    int64
}

// WriteAt implements Store.
func (n *NullStore) WriteAt(data []byte, off, size int64) {
	if data != nil && int64(len(data)) != size {
		panic(fmt.Sprintf("store: data length %d != size %d", len(data), size))
	}
	if size == 0 {
		return
	}
	n.written.Add(extent.Extent{Off: off, Len: size})
	if off+size > n.size {
		n.size = off + size
	}
}

// ReadAt implements Store.
func (n *NullStore) ReadAt(buf []byte, off int64) {
	for i := range buf {
		buf[i] = 0
	}
}

// Written implements Store.
func (n *NullStore) Written() *extent.Set { return &n.written }

// Size implements Store.
func (n *NullStore) Size() int64 { return n.size }

// Truncate implements Store.
func (n *NullStore) Truncate(size int64) {
	if size < n.size {
		n.written.Remove(extent.Extent{Off: size, Len: 1<<62 - size})
	}
	n.size = size
}
