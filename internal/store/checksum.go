package store

import (
	"hash/crc32"

	"repro/internal/bufpool"
	"repro/internal/extent"
)

// ChecksumChunk is the integrity granularity: payload-backed stores keep
// one CRC per aligned 4 KB chunk, and injected corruption is tracked at
// the same grain.
const ChecksumChunk int64 = 4 << 10

// crcTable is CRC-32C (Castagnoli), the checksum NVM-aware storage stacks
// use for at-rest data.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// zeroChunkSum is the CRC of a chunk that was never written.
var zeroChunkSum = crc32.Checksum(make([]byte, ChecksumChunk), crcTable)

// Integrity is the verification surface of a checksummed store: scrub
// paths use VerifyExtent to find corrupt subranges, fault injection uses
// CorruptAt to plant them. Both are pure bookkeeping — neither charges
// simulated device time.
type Integrity interface {
	// VerifyExtent returns the corrupt subranges of e (empty when e is
	// clean). On a payload-backed store the content is re-hashed against
	// the per-chunk CRCs; on a payload-free store the corruption ledger
	// answers, so 32 GB runs verify without holding bytes.
	VerifyExtent(e extent.Extent) []extent.Extent
	// CorruptAt flips n bytes at off (payload-backed: the stored bytes
	// really change, bypassing the checksum update; payload-free: the
	// range is marked in the ledger). A later WriteAt over the range
	// heals it.
	CorruptAt(off, n int64)
}

// ChecksumStore wraps a Store with per-chunk CRCs (a MemStore inner) or an
// extent-granularity corruption ledger (any other inner). All Store
// methods delegate; the wrapper adds zero simulated time.
type ChecksumStore struct {
	inner Store
	mem   *MemStore        // the inner MemStore, nil without a payload
	sums  map[int64]uint32 // chunk index -> CRC-32C of the aligned chunk
	bad   extent.Set       // injected-corruption ledger
}

// memChecksumStore preserves the PayloadBacked marker of a wrapped
// MemStore so consumers that branch on payload presence keep working.
type memChecksumStore struct{ *ChecksumStore }

func (m *memChecksumStore) payloadBacked() {}

// NewMemChecksummed is a Factory for a checksummed MemStore.
func NewMemChecksummed() Store { return Checksummed(NewMem()) }

// NewNullChecksummed is a Factory for a checksummed NullStore.
func NewNullChecksummed() Store { return Checksummed(NewNull()) }

// PooledMemChecksummed returns a Factory for checksummed MemStores that
// take their pages from p (see PooledMem).
func PooledMemChecksummed(p *bufpool.Pool) Factory {
	return func() Store { return Checksummed(&MemStore{pool: p}) }
}

// Checksummed wraps inner with integrity tracking. A MemStore inner keeps
// its PayloadBacked marker.
func Checksummed(inner Store) Store {
	cs := &ChecksumStore{inner: inner, sums: map[int64]uint32{}}
	if m, ok := inner.(*MemStore); ok {
		cs.mem = m
		return &memChecksumStore{cs}
	}
	return cs
}

// WriteAt implements Store; a write over a corrupt range heals it.
func (cs *ChecksumStore) WriteAt(src Source, off, size int64) {
	cs.inner.WriteAt(src, off, size)
	if size <= 0 {
		return
	}
	if cs.bad.Len() > 0 {
		cs.bad.Remove(extent.Extent{Off: off, Len: size})
	}
	if cs.mem != nil {
		cs.rehash(off, off+size)
	}
}

// rehash recomputes the CRCs of every chunk touching [lo, hi).
func (cs *ChecksumStore) rehash(lo, hi int64) {
	for ci := lo / ChecksumChunk; ci <= (hi-1)/ChecksumChunk; ci++ {
		cs.sums[ci] = cs.chunkSum(ci)
	}
}

// chunkSum hashes chunk ci where the MemStore holds it: pageSize is a
// multiple of ChecksumChunk, so the chunk lies in one page.
func (cs *ChecksumStore) chunkSum(ci int64) uint32 {
	if b := cs.mem.view(ci*ChecksumChunk, ChecksumChunk); b != nil {
		return crc32.Checksum(b, crcTable)
	}
	return zeroChunkSum
}

// ReadAt implements Store.
func (cs *ChecksumStore) ReadAt(dst Sink, off, size int64) { cs.inner.ReadAt(dst, off, size) }

// Written implements Store.
func (cs *ChecksumStore) Written() *extent.Set { return cs.inner.Written() }

// Size implements Store.
func (cs *ChecksumStore) Size() int64 { return cs.inner.Size() }

// Truncate implements Store.
func (cs *ChecksumStore) Truncate(size int64) {
	old := cs.inner.Size()
	cs.inner.Truncate(size)
	if size >= old {
		return
	}
	cs.bad.Remove(extent.Extent{Off: size, Len: 1<<62 - size})
	if cs.mem != nil {
		for ci := size / ChecksumChunk; ci <= (old-1)/ChecksumChunk; ci++ {
			delete(cs.sums, ci)
		}
		if size%ChecksumChunk != 0 {
			cs.rehash(size-1, size) // boundary chunk keeps a valid sum
		}
	}
}

// CorruptAt implements Integrity.
func (cs *ChecksumStore) CorruptAt(off, n int64) {
	if n <= 0 {
		return
	}
	cs.bad.Add(extent.Extent{Off: off, Len: n})
	if cs.mem == nil {
		return
	}
	// Really flip the stored bytes, bypassing the checksum update, so a
	// re-hash sees a genuine mismatch.
	b := make([]byte, n)
	buf := Bytes(b, off)
	cs.inner.ReadAt(buf, off, n)
	for i := range b {
		b[i] ^= 0xFF
	}
	cs.inner.WriteAt(buf, off, n)
}

// VerifyExtent implements Integrity.
func (cs *ChecksumStore) VerifyExtent(e extent.Extent) []extent.Extent {
	if e.Empty() {
		return nil
	}
	var out extent.Set
	for _, b := range cs.bad.Extents() {
		if ov := b.Intersect(e); !ov.Empty() {
			out.Add(ov)
		}
	}
	if cs.mem != nil {
		for ci := e.Off / ChecksumChunk; ci <= (e.End()-1)/ChecksumChunk; ci++ {
			want, ok := cs.sums[ci]
			if !ok || cs.chunkSum(ci) == want {
				continue // clean, or never written through the wrapper
			}
			if ov := (extent.Extent{Off: ci * ChecksumChunk, Len: ChecksumChunk}).Intersect(e); !ov.Empty() {
				out.Add(ov)
			}
		}
	}
	return out.Extents()
}

// Release implements Releaser: the inner MemStore hands its pages back
// and the wrapper forgets its sums and ledger.
func (cs *ChecksumStore) Release() {
	if cs.mem != nil {
		cs.mem.Release()
	}
	clear(cs.sums)
	cs.bad.Clear()
}
