package mpi

import "testing"

// BenchmarkRelRetainAck measures the fault-free reliable-delivery cost per
// message: sequence assignment, sender-side retention and the ack release.
// With the outMsg free list this is allocation-free in steady state.
func BenchmarkRelRetainAck(b *testing.B) {
	rel := newRelState()
	k := relKey{src: 0, dst: 9, tag: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 1024}
		rel.stamp(&m)
		rel.ack(k, m.relSeq)
	}
	if n := len(rel.outstanding); n != 0 {
		b.Fatalf("%d messages still outstanding", n)
	}
}

// BenchmarkRelRetainAckManyStreams spreads the same traffic over 4096
// streams — one per (aggregator, writer) pair at the bench-tier scale — so
// the per-stream map overhead is measured too.
func BenchmarkRelRetainAckManyStreams(b *testing.B) {
	rel := newRelState()
	const streams = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := relKey{src: i % streams, dst: streams, tag: 3}
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 1024}
		rel.stamp(&m)
		rel.ack(k, m.relSeq)
	}
}

// TestRelRetainAckSteadyStateZeroAlloc pins the pooling property: once the
// free list and stream maps are warm, the fault-free retain/ack cycle
// allocates nothing per message.
func TestRelRetainAckSteadyStateZeroAlloc(t *testing.T) {
	rel := newRelState()
	k := relKey{src: 1, dst: 2, tag: 5}
	cycle := func() {
		m := Message{Src: k.src, Dst: k.dst, Tag: k.tag, Size: 64}
		rel.stamp(&m)
		rel.ack(k, m.relSeq)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the free list and map buckets
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state retain/ack allocated %.1f times per message, want 0", allocs)
	}
}

// TestRelRetainAckUniqueTagsZeroAlloc is the same cycle with a fresh tag
// per message, as the two-phase shuffle sends every round under a tag of
// its own: a stream that carries one message must leave no per-stream
// retention record behind. Only the per-stream sequence counters grow, by
// map growth that amortizes to well under one allocation per message.
func TestRelRetainAckUniqueTagsZeroAlloc(t *testing.T) {
	rel := newRelState()
	tag := 0
	cycle := func() {
		tag++
		m := Message{Src: 1, Dst: 2, Tag: tag, Size: 64}
		rel.stamp(&m)
		rel.ack(relKey{src: 1, dst: 2, tag: tag}, m.relSeq)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the free list
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("retain/ack over unique tags allocated %.1f times per message, want 0", allocs)
	}
	if n := len(rel.outstanding); n != 0 {
		t.Fatalf("%d messages still outstanding", n)
	}
}
