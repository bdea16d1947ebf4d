package mpi

import "testing"

// newBenchRelState builds a relState with the protocol's fixed timing,
// bypassing World so the bookkeeping can be driven directly.
func newBenchRelState() *relState {
	return &relState{
		nextSeq:     make(map[relKey]uint64),
		outstanding: make(map[relKey]map[uint64]*outMsg),
		nextDeliver: make(map[relKey]uint64),
		pending:     make(map[relKey]map[uint64]*Message),
	}
}

// BenchmarkRelRetainAck measures the fault-free reliable-delivery cost per
// message: sequence assignment, sender-side retention and the ack release.
// With the outMsg free list this is allocation-free in steady state.
func BenchmarkRelRetainAck(b *testing.B) {
	rel := newBenchRelState()
	k := relKey{src: 0, dst: 9, tag: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 1024}
		m.relSeq = rel.nextSeq[k]
		rel.nextSeq[k]++
		rel.retain(k, m)
		rel.ack(k, m.relSeq)
	}
	if n := len(rel.outstanding[k]); n != 0 {
		b.Fatalf("%d messages still outstanding", n)
	}
}

// BenchmarkRelRetainAckManyStreams spreads the same traffic over 4096
// streams — one per (aggregator, writer) pair at the bench-tier scale — so
// the per-stream map overhead is measured too.
func BenchmarkRelRetainAckManyStreams(b *testing.B) {
	rel := newBenchRelState()
	const streams = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := relKey{src: i % streams, dst: streams, tag: 3}
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 1024}
		m.relSeq = rel.nextSeq[k]
		rel.nextSeq[k]++
		rel.retain(k, m)
		rel.ack(k, m.relSeq)
	}
}

// TestRelRetainAckSteadyStateZeroAlloc pins the pooling property: once the
// free list and stream maps are warm, the fault-free retain/ack cycle
// allocates nothing per message.
func TestRelRetainAckSteadyStateZeroAlloc(t *testing.T) {
	rel := newBenchRelState()
	k := relKey{src: 1, dst: 2, tag: 5}
	cycle := func() {
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 64}
		m.relSeq = rel.nextSeq[k]
		rel.nextSeq[k]++
		rel.retain(k, m)
		rel.ack(k, m.relSeq)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the free list and map buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state retain/ack allocated %.1f times per message, want 0", allocs)
	}
}
