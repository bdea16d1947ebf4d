// Package store provides the byte-payload backends used by the simulated
// file systems. MemStore keeps real data in fixed-size pages so integration
// tests can assert byte-exact end-to-end correctness of the collective
// write and cache flush paths; each of its operations costs O(bytes it
// touches), however much the file already holds. NullStore tracks only
// written extents so the 32 GB evaluation runs execute the identical
// control flow without allocating payload memory.
//
// A store's payload is offset-addressed: a write reads its bytes from a
// Source and a read hands them to a Sink, both by file offset, a page at a
// time. So the bytes move in one copy between the store's pages and
// wherever the caller keeps them: a contiguous buffer (Bytes), or the
// many ranks' buffers a two-phase aggregator gathers from or scatters to.
// Every layer above passes the payload through unchanged.
package store

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/extent"
)

// Source supplies the bytes of a write: ReadAt fills p with the bytes of
// file range [off, off+len(p)). It is io.ReaderAt without the error.
type Source interface{ ReadAt(p []byte, off int64) }

// Sink takes the bytes of a read: WriteAt takes p, the bytes of file range
// [off, off+len(p)), and must not keep p. It is io.WriterAt without the
// error.
type Sink interface{ WriteAt(p []byte, off int64) }

// Payload is a buffer that can be both written from and read into.
type Payload interface {
	Source
	Sink
}

// Bytes returns b as the payload of file range [off, off+len(b)), or nil
// (metadata-only) when b is nil. Asking it for a byte outside that range
// panics.
func Bytes(b []byte, off int64) Payload {
	if b == nil {
		return nil
	}
	return &Buf{B: b, Off: off}
}

// Buf is the contiguous payload Bytes returns: B holds the bytes of file
// range [Off, Off+len(B)). A caller that reuses one Buf for buffer after
// buffer passes &buf without a fresh allocation.
type Buf struct {
	B   []byte
	Off int64
}

// ReadAt implements Source.
func (b *Buf) ReadAt(p []byte, off int64) { copy(p, b.B[off-b.Off:off-b.Off+int64(len(p))]) }

// WriteAt implements Sink.
func (b *Buf) WriteAt(p []byte, off int64) { copy(b.B[off-b.Off:off-b.Off+int64(len(p))], p) }

// zeros is the page a read of bytes never written hands its sink.
var zeros [pageSize]byte

// Zero hands dst the zero bytes of file range [off, off+size), a page at
// a time.
func Zero(dst Sink, off, size int64) {
	for pos, end := off, off+size; pos < end; {
		n := min(pageSize, end-pos)
		dst.WriteAt(zeros[:n], pos)
		pos += n
	}
}

// Store records the logical content of one file.
type Store interface {
	// WriteAt records a write of size bytes at off, read from src, or a
	// metadata-only write when src is nil.
	WriteAt(src Source, off, size int64)
	// ReadAt hands dst the size bytes at off; a nil dst reads nothing.
	// Bytes never written read as zero. Metadata-only stores return zeros
	// for all content.
	ReadAt(dst Sink, off, size int64)
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

// Releaser is a store that can hand its memory back when its file is
// discarded. After Release the store is empty, as if newly created, and
// shares no memory with what it held.
type Releaser interface{ Release() }

// PayloadBacked marks stores that hold real bytes (MemStore); consumers use
// it to decide whether reading back content is meaningful.
type PayloadBacked interface{ payloadBacked() }

func (m *MemStore) payloadBacked() {}

// NewMem is a Factory for MemStore.
func NewMem() Store { return &MemStore{} }

// PooledMem returns a Factory for MemStores that take their pages from p
// and hand them back when Truncate or Release drops them.
func PooledMem(p *bufpool.Pool) Factory { return func() Store { return &MemStore{pool: p} } }

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
	pool    *bufpool.Pool // where pages come from and go back to; nil allocates
}

// WriteAt implements Store, copying src page by page straight into the
// pages. A nil-src write clears the bytes it covers and allocates no page.
func (m *MemStore) WriteAt(src Source, off, size int64) {
	if size < 0 {
		panic(fmt.Sprintf("store: negative write size %d", size))
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
		if src == nil {
			if page != nil {
				clear(page[po : po+n])
			}
		} else {
			if page == nil {
				if m.pages == nil {
					m.pages = map[int64][]byte{}
				}
				// A recycled page holds its last user's bytes: clear
				// what this write does not cover.
				page = m.pool.Get(int(pageSize))
				clear(page[:po])
				clear(page[po+n:])
				m.pages[pi] = page
			}
			src.ReadAt(page[po:po+n], pos)
		}
		pos += n
	}
}

// ReadAt implements Store, handing dst each page's bytes in place (zeros
// for a page never written).
func (m *MemStore) ReadAt(dst Sink, off, size int64) {
	if dst == nil {
		return
	}
	for pos, end := off, off+size; pos < end; {
		pi, po := pos/pageSize, pos%pageSize
		n := min(pageSize-po, end-pos)
		if page := m.pages[pi]; page != nil {
			dst.WriteAt(page[po:po+n], pos)
		} else {
			Zero(dst, pos, n)
		}
		pos += n
	}
}

// view returns the n stored bytes at off, which must lie in one page, or
// nil when that page was never written (its bytes read as zero).
func (m *MemStore) view(off, n int64) []byte {
	page := m.pages[off/pageSize]
	if page == nil {
		return nil
	}
	po := off % pageSize
	return page[po : po+n]
}

// Written implements Store.
func (m *MemStore) Written() *extent.Set { return &m.written }

// Size implements Store.
func (m *MemStore) Size() int64 { return m.size }

// Truncate implements Store. Shrinking hands the pages past size back to
// the pool and clears the tail of the boundary page, so a later grow
// reads zeros.
func (m *MemStore) Truncate(size int64) {
	if size >= m.size {
		m.size = size
		return
	}
	m.size = size
	m.written.Remove(extent.Extent{Off: size, Len: 1<<62 - size})
	for pi := range m.pages {
		if pi*pageSize >= size {
			m.pool.Put(m.pages[pi])
			delete(m.pages, pi)
		}
	}
	if page := m.pages[size/pageSize]; page != nil {
		clear(page[size%pageSize:])
	}
}

// Release implements Releaser: every page goes back to the pool.
func (m *MemStore) Release() {
	for _, page := range m.pages {
		m.pool.Put(page)
	}
	*m = MemStore{pool: m.pool}
}

// NullStore tracks only extents and size; content reads as zero.
type NullStore struct {
	written extent.Set
	size    int64
}

// WriteAt implements Store; the bytes of src are not kept.
func (n *NullStore) WriteAt(_ Source, off, size int64) {
	if size == 0 {
		return
	}
	n.written.Add(extent.Extent{Off: off, Len: size})
	if off+size > n.size {
		n.size = off + size
	}
}

// ReadAt implements Store.
func (n *NullStore) ReadAt(dst Sink, off, size int64) {
	if dst != nil {
		Zero(dst, off, size)
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
