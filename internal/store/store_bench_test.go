package store

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// BenchmarkMemStoreStridedAssemble assembles a file of readback_64's shape
// — 64 ranks × 32 blocks of 16 KiB, interleaved block by block in the file
// — writing it in rank-major order as an aggregator receives it, then
// reads it back block by block and compares. Assembly must allocate
// O(file size): an op that allocates more than twice the file size fails.
func BenchmarkMemStoreStridedAssemble(b *testing.B) {
	const ranks, blocks, block = 64, 32, 16 << 10
	const fileSize = ranks * blocks * block
	src := make([]byte, fileSize) // src[off] is the byte expected at off
	rand.New(rand.NewSource(1)).Read(src)
	got := make([]byte, block)
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMem()
		for r := 0; r < ranks; r++ {
			for j := 0; j < blocks; j++ {
				off := int64(j*ranks+r) * block
				m.WriteAt(src[off:off+block], off, block)
			}
		}
		for off := int64(0); off < fileSize; off += block {
			m.ReadAt(got, off)
			if !bytes.Equal(got, src[off:off+block]) {
				b.Fatalf("block at %d differs after assembly", off)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N); per > 2*fileSize {
		b.Fatalf("%d bytes allocated per op, want at most %d (2x the file size)", per, 2*fileSize)
	}
}
