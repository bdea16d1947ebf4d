package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/extent"
)

func TestChecksummedPreservesPayloadMarker(t *testing.T) {
	if _, ok := NewMemChecksummed().(PayloadBacked); !ok {
		t.Fatal("checksummed MemStore must keep the PayloadBacked marker")
	}
	if _, ok := NewNullChecksummed().(PayloadBacked); ok {
		t.Fatal("checksummed NullStore must not claim payload backing")
	}
}

// A single flipped byte in a payload-backed store must be detected by
// VerifyExtent — the acceptance bar for the whole corruption layer.
func TestChecksumDetectsSingleFlippedByte(t *testing.T) {
	s := NewMemChecksummed()
	integ := s.(Integrity)
	data := make([]byte, 3*ChecksumChunk)
	for i := range data {
		data[i] = byte(i * 7)
	}
	s.WriteAt(Bytes(data, 0), 0, int64(len(data)))
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: int64(len(data))}); len(bad) != 0 {
		t.Fatalf("clean store verified corrupt: %v", bad)
	}

	integ.CorruptAt(ChecksumChunk+5, 1)
	bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: int64(len(data))})
	if len(bad) == 0 {
		t.Fatal("flipped byte not detected")
	}
	for _, b := range bad {
		if !b.Contains(ChecksumChunk + 5) {
			t.Fatalf("corrupt range %v misses the flipped byte", b)
		}
	}
	// The flip really changed the stored content.
	buf := make([]byte, 1)
	s.ReadAt(Bytes(buf, ChecksumChunk+5), ChecksumChunk+5, int64(len(buf)))
	if buf[0] == data[ChecksumChunk+5] {
		t.Fatal("CorruptAt did not change the stored byte")
	}
	// Untouched chunks stay clean.
	if got := integ.VerifyExtent(extent.Extent{Off: 0, Len: ChecksumChunk}); len(got) != 0 {
		t.Fatalf("untouched chunk flagged corrupt: %v", got)
	}
}

func TestChecksumRewriteHeals(t *testing.T) {
	s := NewMemChecksummed()
	integ := s.(Integrity)
	data := make([]byte, 2*ChecksumChunk)
	for i := range data {
		data[i] = byte(i)
	}
	s.WriteAt(Bytes(data, 0), 0, int64(len(data)))
	integ.CorruptAt(10, 4)
	if len(integ.VerifyExtent(extent.Extent{Off: 0, Len: ChecksumChunk})) == 0 {
		t.Fatal("corruption not detected before the heal")
	}
	s.WriteAt(Bytes(data[:ChecksumChunk], 0), 0, ChecksumChunk)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 2 * ChecksumChunk}); len(bad) != 0 {
		t.Fatalf("rewrite did not heal: %v", bad)
	}
	buf := make([]byte, 4)
	s.ReadAt(Bytes(buf, 10), 10, int64(len(buf)))
	for i, b := range buf {
		if b != data[10+i] {
			t.Fatalf("healed byte %d = %#x, want %#x", 10+i, b, data[10+i])
		}
	}
}

// The payload-free wrapper answers from its ledger so huge runs never
// hold bytes: corruption is tracked per extent and healed by rewrites.
func TestChecksumNullLedger(t *testing.T) {
	s := NewNullChecksummed()
	integ := s.(Integrity)
	s.WriteAt(nil, 0, 1<<20)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20}); len(bad) != 0 {
		t.Fatalf("clean ledger reports %v", bad)
	}
	integ.CorruptAt(4096, 100)
	bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20})
	if len(bad) != 1 || bad[0].Off != 4096 || bad[0].Len != 100 {
		t.Fatalf("ledger = %v, want [{4096 100}]", bad)
	}
	// Verification windows clip to the queried extent.
	bad = integ.VerifyExtent(extent.Extent{Off: 4140, Len: 1 << 10})
	if len(bad) != 1 || bad[0].Off != 4140 || bad[0].Len != 56 {
		t.Fatalf("clipped ledger = %v, want [{4140 56}]", bad)
	}
	s.WriteAt(nil, 4096, 4096)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 1 << 20}); len(bad) != 0 {
		t.Fatalf("rewrite did not heal the ledger: %v", bad)
	}
	if s.Size() != 1<<20 || s.Written().TotalBytes() != 1<<20 {
		t.Fatalf("delegation broken: size=%d written=%d", s.Size(), s.Written().TotalBytes())
	}
}

func TestChecksumTruncateDropsState(t *testing.T) {
	s := NewMemChecksummed()
	integ := s.(Integrity)
	data := make([]byte, 2*ChecksumChunk)
	for i := range data {
		data[i] = byte(i % 251)
	}
	s.WriteAt(Bytes(data, 0), 0, int64(len(data)))
	integ.CorruptAt(ChecksumChunk+1, 1)
	s.Truncate(ChecksumChunk / 2)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: 2 * ChecksumChunk}); len(bad) != 0 {
		t.Fatalf("truncated-away corruption still reported: %v", bad)
	}
	// Content before the cut still matches its (re-hashed) checksum.
	s.WriteAt(Bytes(data[:16], 0), 0, 16)
	if bad := integ.VerifyExtent(extent.Extent{Off: 0, Len: ChecksumChunk}); len(bad) != 0 {
		t.Fatalf("boundary chunk broken after truncate: %v", bad)
	}
}

// copyingSums is the wrapper as it was before chunks were hashed in place:
// every chunk is copied out of the MemStore into a buffer to be hashed.
// It is the reference TestChecksumInPlaceMatchesCopying compares against.
type copyingSums struct {
	inner Store
	sums  map[int64]uint32
	bad   extent.Set
	chunk []byte
}

func (c *copyingSums) rehash(lo, hi int64) {
	for ci := lo / ChecksumChunk; ci <= (hi-1)/ChecksumChunk; ci++ {
		c.inner.ReadAt(Bytes(c.chunk, ci*ChecksumChunk), ci*ChecksumChunk, int64(len(c.chunk)))
		c.sums[ci] = crc32.Checksum(c.chunk, crcTable)
	}
}

func (c *copyingSums) WriteAt(src Source, off, size int64) {
	c.inner.WriteAt(src, off, size)
	c.bad.Remove(extent.Extent{Off: off, Len: size})
	c.rehash(off, off+size)
}

func (c *copyingSums) Truncate(size int64) {
	old := c.inner.Size()
	c.inner.Truncate(size)
	if size >= old {
		return
	}
	c.bad.Remove(extent.Extent{Off: size, Len: 1<<62 - size})
	for ci := size / ChecksumChunk; ci <= (old-1)/ChecksumChunk; ci++ {
		delete(c.sums, ci)
	}
	if size%ChecksumChunk != 0 {
		c.rehash(size-1, size)
	}
}

func (c *copyingSums) CorruptAt(off, n int64) {
	c.bad.Add(extent.Extent{Off: off, Len: n})
	buf := make([]byte, n)
	c.inner.ReadAt(Bytes(buf, off), off, int64(len(buf)))
	for i := range buf {
		buf[i] ^= 0xFF
	}
	c.inner.WriteAt(Bytes(buf, off), off, n)
}

func (c *copyingSums) VerifyExtent(e extent.Extent) []extent.Extent {
	var out extent.Set
	for _, b := range c.bad.Extents() {
		if ov := b.Intersect(e); !ov.Empty() {
			out.Add(ov)
		}
	}
	for ci := e.Off / ChecksumChunk; ci <= (e.End()-1)/ChecksumChunk; ci++ {
		want, ok := c.sums[ci]
		if !ok {
			continue
		}
		c.inner.ReadAt(Bytes(c.chunk, ci*ChecksumChunk), ci*ChecksumChunk, int64(len(c.chunk)))
		if crc32.Checksum(c.chunk, crcTable) == want {
			continue
		}
		if ov := (extent.Extent{Off: ci * ChecksumChunk, Len: ChecksumChunk}).Intersect(e); !ov.Empty() {
			out.Add(ov)
		}
	}
	return out.Extents()
}

// TestChecksumInPlaceMatchesCopying runs writes that straddle pages, a
// Truncate into the middle of a chunk and CorruptAt calls (one across a
// page boundary) through the in-place wrapper and the copying reference,
// and requires identical sums and VerifyExtent answers after every step.
func TestChecksumInPlaceMatchesCopying(t *testing.T) {
	s := NewMemChecksummed()
	cs := s.(*memChecksumStore).ChecksumStore
	ref := &copyingSums{inner: NewMem(), sums: map[int64]uint32{}, chunk: make([]byte, ChecksumChunk)}
	payload := func(n, seed int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + seed)
		}
		return b
	}
	queries := []extent.Extent{
		{Off: 0, Len: 4 * pageSize},
		{Off: pageSize - 100, Len: 300},
		{Off: 2*pageSize + 7, Len: ChecksumChunk},
		{Off: 3*pageSize - 1, Len: 2},
		{Off: 5 * pageSize, Len: pageSize},
	}
	check := func(step string) {
		t.Helper()
		if len(cs.sums) != len(ref.sums) {
			t.Fatalf("%s: %d sums, reference %d", step, len(cs.sums), len(ref.sums))
		}
		for ci, want := range ref.sums {
			if got, ok := cs.sums[ci]; !ok || got != want {
				t.Fatalf("%s: chunk %d sum %#x (present %v), reference %#x", step, ci, got, ok, want)
			}
		}
		for _, q := range queries {
			got, want := cs.VerifyExtent(q), ref.VerifyExtent(q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: VerifyExtent(%v) = %v, reference %v", step, q, got, want)
			}
		}
	}
	type mutator = interface {
		WriteAt(Source, int64, int64)
		Truncate(int64)
		CorruptAt(int64, int64)
	}
	both := func(step string, f func(s mutator)) {
		t.Helper()
		f(cs)
		f(ref)
		check(step)
	}
	both("write across pages 0-1", func(s mutator) { s.WriteAt(Bytes(payload(9000, 1), pageSize-5000), pageSize-5000, 9000) })
	both("write spanning page 2", func(s mutator) {
		s.WriteAt(Bytes(payload(int(pageSize)+300, 2), 2*pageSize-150), 2*pageSize-150, pageSize+300)
	})
	both("metadata-only write into page 5", func(s mutator) { s.WriteAt(nil, 5*pageSize+10, 100) })
	both("sparse write into page 3", func(s mutator) {
		s.WriteAt(Bytes(payload(10, 3), 3*pageSize+ChecksumChunk+3), 3*pageSize+ChecksumChunk+3, 10)
	})
	both("corrupt across pages 1-2", func(s mutator) { s.CorruptAt(2*pageSize-2, 4) })
	both("corrupt inside page 0", func(s mutator) { s.CorruptAt(pageSize-4000, 1) })
	both("truncate mid-chunk of page 2", func(s mutator) { s.Truncate(2*pageSize + 2*ChecksumChunk + 17) })
	both("regrow over the cut", func(s mutator) {
		s.WriteAt(Bytes(payload(5000, 4), 2*pageSize+2*ChecksumChunk), 2*pageSize+2*ChecksumChunk, 5000)
	})
}

// TestReleaseRecyclesPages checks that a pooled MemStore draws its pages
// from the pool, hands them back on Truncate and Release, and that a page
// recycled into another store reads as zero where that store never wrote.
func TestReleaseRecyclesPages(t *testing.T) {
	p := bufpool.New()
	a := PooledMemChecksummed(p)().(*memChecksumStore)
	full := bytes.Repeat([]byte{0xAB}, int(2*pageSize))
	a.WriteAt(Bytes(full, 0), 0, int64(len(full)))
	pages := map[*byte]bool{}
	for _, pg := range a.mem.pages {
		pages[&pg.b[0]] = true
	}
	a.Truncate(pageSize)
	a.Release()
	if a.Size() != 0 || a.Written().TotalBytes() != 0 || len(a.sums) != 0 {
		t.Fatalf("released store not empty: size %d written %d sums %d", a.Size(), a.Written().TotalBytes(), len(a.sums))
	}
	b := PooledMem(p)().(*MemStore)
	b.WriteAt(Bytes([]byte{1, 2, 3}, 100), 100, 3)
	b.WriteAt(Bytes([]byte{4}, pageSize+5), pageSize+5, 1)
	for _, pg := range b.pages {
		if !pages[&pg.b[0]] {
			t.Fatal("second store allocated a page instead of reusing a released one")
		}
	}
	got := make([]byte, 2*pageSize)
	b.ReadAt(Bytes(got, 0), 0, int64(len(got)))
	want := make([]byte, 2*pageSize)
	copy(want[100:], []byte{1, 2, 3})
	want[pageSize+5] = 4
	if !bytes.Equal(got, want) {
		t.Fatal("a recycled page leaks its previous store's bytes")
	}
}
