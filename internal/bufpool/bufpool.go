// Package bufpool is the payload path's byte pool: one size-classed free
// list per simulated cluster. Every layer that keeps payload bytes of its
// own draws from the cluster's pool and hands its buffers back when their
// lifetime ends: MemStore pages (freed when their last reference drops,
// since a cache file and its global file share them), the cache's
// recovery buffers, and a sieved two-phase write's window (freed within
// its round). The cache sync thread holds no buffer: it hands the global
// file the cache's pages. Nothing else stages a two-phase window:
// an aggregator's store write copies from the senders' buffers and its
// store read into the requesters', and MPI messages only lend those
// buffers. Like ROMIO's I/O buffers, pooled ones are reused from call to
// call instead of allocated afresh.
//
// A buffer nobody hands back is simply collected by the garbage collector,
// so a lost release costs memory, never correctness. A release that comes
// too early is the dangerous bug; SetPoison arms a test-only check that
// makes one fail loudly.
//
// The simulation is single-threaded per kernel, so a Pool needs no lock.
// A nil *Pool is valid: Get allocates and Put drops the buffer.
package bufpool

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Size classes are the powers of two from 1<<minShift to 1<<maxShift
// bytes. Get rounds a request up to its class; larger requests bypass the
// pool.
const (
	minShift = 6  // 64 B
	maxShift = 30 // 1 GiB
)

// Pool is one cluster's free lists, one per size class.
type Pool struct {
	free   [maxShift - minShift + 1][][]byte
	poison bool
}

// poisonNew is the test-only switch SetPoison flips; New reads it once.
var poisonNew atomic.Bool

// SetPoison makes every Pool created afterwards poison the buffers handed
// back to it, and returns the previous setting. It is a test-only hook:
// Put fills a released buffer with a fixed pattern, so a read after
// release sees the pattern, and Get panics when a recycled buffer no
// longer holds it (a write after release).
func SetPoison(on bool) bool { return poisonNew.Swap(on) }

// New returns an empty pool.
func New() *Pool { return &Pool{poison: poisonNew.Load()} }

// class returns the size class of an n-byte buffer and whether the pool
// serves that size.
func class(n int) (int, bool) {
	if n <= 0 || n > 1<<maxShift {
		return 0, false
	}
	return max(bits.Len(uint(n-1)), minShift) - minShift, true
}

// Get returns a buffer of length n. Its contents are unspecified: a
// recycled buffer holds whatever its last user left, so a caller that
// reads bytes it did not write must clear them first.
func (p *Pool) Get(n int) []byte {
	c, ok := class(n)
	if p == nil || !ok {
		return make([]byte, n)
	}
	l := p.free[c]
	if len(l) == 0 {
		return make([]byte, n, 1<<(c+minShift))
	}
	b := l[len(l)-1]
	l[len(l)-1] = nil
	p.free[c] = l[:len(l)-1]
	if p.poison && !poisoned(b) {
		panic(fmt.Sprintf("bufpool: a %d-byte buffer was written after its release", len(b)))
	}
	return b[:n]
}

// Put hands b back for reuse. The caller and everyone it shared b with
// must be done with it. A buffer whose capacity is not a size class (one
// Get did not return) is left to the garbage collector.
func (p *Pool) Put(b []byte) {
	if p == nil {
		return
	}
	c, ok := class(cap(b))
	if !ok || cap(b) != 1<<(c+minShift) {
		return
	}
	b = b[:cap(b)]
	if p.poison {
		for i := range b {
			b[i] = pattern[i%len(pattern)]
		}
	}
	p.free[c] = append(p.free[c], b)
}

// pattern is what a poisoning pool writes over a released buffer.
var pattern = [8]byte{0xde, 0xad, 0xbe, 0xef, 0xfe, 0xe1, 0xde, 0xad}

// poisoned reports whether b, read from its first byte, holds nothing but
// the poison pattern.
func poisoned(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for i, v := range b {
		if v != pattern[i%len(pattern)] {
			return false
		}
	}
	return true
}
