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
//
// MemStore pages are reference-counted and copy-on-write, so stores that
// draw from one pool can share them instead of copying: a read into Pages
// pins the pages, and a write from Pages adopts each page it fully covers.
// The cache sync thread moves a chunk this way, so a synced byte lives in
// one page that the cache file and the global file share. A write into a
// shared page gives the writer a page of its own first, and a page goes
// back to its pool when its last reference drops.
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
// and hand each back when its last holder drops it.
func PooledMem(p *bufpool.Pool) Factory { return func() Store { return &MemStore{pool: p} } }

// NewNull is a Factory for NullStore.
func NewNull() Store { return &NullStore{} }

// pageSize is MemStore's allocation grain. It is a multiple of
// ChecksumChunk, so a checksum chunk never straddles two pages. Measured
// on readback_64 (EXPERIMENTS.md, "Payload path in O(bytes touched)"),
// 4 KiB and 16 KiB pages were slower and 256 KiB pages no faster, while
// rounding sparse stores up further.
const pageSize int64 = 64 << 10

// page is one MemStore page: pageSize bytes drawn from pool and held by
// refs holders, the stores whose page maps name it and the Pages that pin
// it. A page with more than one holder is read-only: a store that writes
// into it first takes a page of its own (MemStore.own). The last holder to
// drop it hands its bytes back to the pool they came from.
type page struct {
	b    []byte
	refs int32
	pool *bufpool.Pool
}

// unref drops one holder's reference.
func (pg *page) unref() {
	if pg.refs--; pg.refs == 0 {
		pg.pool.Put(pg.b)
	}
}

// pageSink is a Sink that takes page references: MemStore.ReadAt pins
// each page the read touches into it (nil for a page never written)
// instead of copying the page's bytes. *Pages is the one implementation.
type pageSink interface {
	Sink
	pin(pi int64, pg *page)
}

// pageSource is a Source that offers page references: MemStore.WriteAt
// adopts the page it offers for each page index the write fully covers,
// instead of copying its bytes. *Pages is the one implementation.
type pageSource interface {
	Source
	page(pi int64) *page
}

// skipCopyOnWrite is a test-only sabotage switch: set, own writes into a
// shared page in place, so the shared-page model test can show that it
// catches a write leaking into another holder's bytes.
var skipCopyOnWrite bool

// MemStore holds real file bytes in fixed-size pages, each allocated on
// the first write that carries data into it. Every operation costs
// O(bytes it touches): a write copies into the pages it covers, a read
// copies out of them (zero-filling missing pages), and neither depends on
// how much the file already holds.
//
// Its pages are shared copy-on-write with other stores of its pool
// through Pages, and sharing never shows in any store's bytes.
type MemStore struct {
	pages   map[int64]*page // page index -> its page
	written extent.Set
	size    int64
	pool    *bufpool.Pool // where pages come from and go back to; nil allocates
}

// WriteAt implements Store, copying src page by page straight into the
// pages, or adopting the pages a Pages source offers for the pages the
// write fully covers. A nil-src write clears the bytes it covers and
// allocates no page.
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
	ps, _ := src.(pageSource)
	for pos, end := off, off+size; pos < end; {
		pi, po := pos/pageSize, pos%pageSize
		n := min(pageSize-po, end-pos)
		full := n == pageSize
		pg := m.pages[pi]
		switch {
		case src == nil:
			if pg != nil && full {
				pg.unref()
				delete(m.pages, pi)
			} else if pg != nil {
				clear(m.own(pi, pg, false).b[po : po+n])
			}
		case full && ps != nil && m.adopt(pi, pg, ps.page(pi)):
		case pg == nil:
			// A recycled page holds its last user's bytes: clear what
			// this write does not cover.
			pg = m.newPage(pi)
			clear(pg.b[:po])
			clear(pg.b[po+n:])
			src.ReadAt(pg.b[po:po+n], pos)
		default:
			src.ReadAt(m.own(pi, pg, full).b[po:po+n], pos)
		}
		pos += n
	}
}

// newPage puts a fresh page from the pool at index pi.
func (m *MemStore) newPage(pi int64) *page {
	if m.pages == nil {
		m.pages = map[int64]*page{}
	}
	pg := &page{b: m.pool.Get(int(pageSize)), refs: 1, pool: m.pool}
	m.pages[pi] = pg
	return pg
}

// own returns page pi, which holds pg, ready for this store to write: pg
// itself when no one else holds it, else a page of the store's own that
// replaces it, a copy of pg unless the write covers the whole page.
func (m *MemStore) own(pi int64, pg *page, covered bool) *page {
	if pg.refs == 1 || skipCopyOnWrite {
		return pg
	}
	q := m.newPage(pi)
	if !covered {
		copy(q.b, pg.b)
	}
	pg.unref()
	return q
}

// adopt puts page q, which another holder offers, at index pi in place
// of pg, and reports whether it did: q must come from this store's pool.
func (m *MemStore) adopt(pi int64, pg, q *page) bool {
	if q == nil || q.pool != m.pool {
		return false
	}
	if q != pg {
		q.refs++
		if pg != nil {
			pg.unref()
		}
		if m.pages == nil {
			m.pages = map[int64]*page{}
		}
		m.pages[pi] = q
	}
	return true
}

// ReadAt implements Store, handing dst each page's bytes in place (zeros
// for a page never written), or pinning each page into a Pages sink.
func (m *MemStore) ReadAt(dst Sink, off, size int64) {
	if dst == nil || size <= 0 {
		return
	}
	if ps, ok := dst.(pageSink); ok {
		for pi := off / pageSize; pi <= (off+size-1)/pageSize; pi++ {
			ps.pin(pi, m.pages[pi])
		}
		return
	}
	for pos, end := off, off+size; pos < end; {
		pi, po := pos/pageSize, pos%pageSize
		n := min(pageSize-po, end-pos)
		if pg := m.pages[pi]; pg != nil {
			dst.WriteAt(pg.b[po:po+n], pos)
		} else {
			Zero(dst, pos, n)
		}
		pos += n
	}
}

// view returns the n stored bytes at off, which must lie in one page, or
// nil when that page was never written (its bytes read as zero).
func (m *MemStore) view(off, n int64) []byte {
	pg := m.pages[off/pageSize]
	if pg == nil {
		return nil
	}
	po := off % pageSize
	return pg.b[po : po+n]
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
	for pi, pg := range m.pages {
		if pi*pageSize >= size {
			pg.unref()
			delete(m.pages, pi)
		}
	}
	if pg := m.pages[size/pageSize]; pg != nil {
		clear(m.own(size/pageSize, pg, false).b[size%pageSize:])
	}
}

// Release implements Releaser: the store drops every page.
func (m *MemStore) Release() {
	for _, pg := range m.pages {
		pg.unref()
	}
	*m = MemStore{pool: m.pool}
}

// Pages is a payload of pinned MemStore pages, a snapshot of one read:
// read into from a MemStore, it takes a reference to each page the read
// touches instead of a copy of its bytes; written from into a MemStore of
// the same pool, it hands the store every page the write fully covers and
// copies the rest. A pinned page is read-only to all its holders, so a
// later write to the store the pages came from cannot reach the snapshot.
// Release drops the pins; a Pages holds one read at a time.
type Pages struct {
	first int64   // page index of pages[0]
	pages []*page // nil where the page was never written
}

func (p *Pages) pin(pi int64, pg *page) {
	if len(p.pages) == 0 {
		p.first = pi
	} else if pi != p.first+int64(len(p.pages)) {
		panic("store: Pages holds one read at a time")
	}
	if pg != nil {
		pg.refs++
	}
	p.pages = append(p.pages, pg)
}

func (p *Pages) page(pi int64) *page {
	if i := pi - p.first; i >= 0 && i < int64(len(p.pages)) {
		return p.pages[i]
	}
	return nil
}

// ReadAt implements Source, copying from the pinned pages (zeros where a
// page was never written).
func (p *Pages) ReadAt(b []byte, off int64) {
	for len(b) > 0 {
		pi, po := off/pageSize, off%pageSize
		src := zeros[:]
		if pg := p.pages[pi-p.first]; pg != nil {
			src = pg.b
		}
		n := copy(b, src[po:])
		b, off = b[n:], off+int64(n)
	}
}

// WriteAt implements Sink for a MemStore read only: such a read pins its
// pages, and no other store holds pages to pin.
func (p *Pages) WriteAt([]byte, int64) {
	panic("store: Pages reads only from a MemStore")
}

// Release drops the pins.
func (p *Pages) Release() {
	for _, pg := range p.pages {
		if pg != nil {
			pg.unref()
		}
	}
	clear(p.pages)
	p.pages = p.pages[:0]
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
