package core

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/store"
)

// quotaRun writes 64 KiB as one tenant with a 16 KiB byte quota: four
// ranks on one node, 16 KiB each, through a single aggregator in 8 KiB
// collective rounds, so quota pressure engages mid-file. It checks that
// every byte reaches the global file and returns the tenant's cache stats
// summed over its ranks.
func quotaRun(t *testing.T, hints mpi.Info) Stats {
	t.Helper()
	const block = 16 << 10
	payload := func(rank int) []byte {
		b := make([]byte, block)
		for i := range b {
			b[i] = byte(rank*37 + i%251)
		}
		return b
	}
	rg := newRig(t, 1, 4, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		info := mpi.Info{
			adio.HintCBWrite: "enable", adio.HintCBNodes: "1", adio.HintCBBufferSize: "8192",
			HintCache: "enable", HintFlushFlag: FlushImmediate,
			HintTenant: "jobA", HintTenantQuotaBytes: "16384",
		}
		for k, v := range hints {
			info[k] = v
		}
		f := rg.open(r, t, info)
		seg := []extent.Extent{{Off: int64(r.ID()) * block, Len: block}}
		if err := f.WriteStridedColl(seg, payload(r.ID())); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*block)
	rg.fs.Lookup("global.dat").Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for rank := 0; rank < 4; rank++ {
		if !bytes.Equal(got[rank*block:][:block], payload(rank)) {
			t.Errorf("rank %d's block did not reach the global file", rank)
		}
	}
	var sum Stats
	for _, c := range rg.caches {
		sum.CacheWrites += c.Stats.CacheWrites
		sum.QuotaStalls += c.Stats.QuotaStalls
		sum.QuotaStallTime += c.Stats.QuotaStallTime
		sum.QuotaWriteThroughs += c.Stats.QuotaWriteThroughs
		sum.EvictedBytes += c.Stats.EvictedBytes
	}
	return sum
}

// TestQuotaBackpressureThenAdmit: under e10_tenant_policy=block a tenant
// whose quota is smaller than its file stalls, the sync thread drains
// dirty extents, clean-extent eviction reclaims them, and the stalled
// write proceeds into the cache: no write-through, no failure.
func TestQuotaBackpressureThenAdmit(t *testing.T) {
	st := quotaRun(t, mpi.Info{HintTenantPolicy: PolicyBlock})
	if st.QuotaStalls == 0 || st.QuotaStallTime <= 0 {
		t.Errorf("expected timed quota stalls under a 16 KiB quota: %d stalls, %v", st.QuotaStalls, st.QuotaStallTime)
	}
	if st.EvictedBytes == 0 {
		t.Error("expected clean-extent eviction to reclaim quota")
	}
	if st.QuotaWriteThroughs != 0 {
		t.Errorf("backpressure should admit, not degrade: %d write-throughs", st.QuotaWriteThroughs)
	}
}

// TestQuotaDegradeToWriteThrough: under e10_tenant_policy=writethrough
// with flush_onclose nothing drains mid-file, so nothing is evictable; a
// quota-exhausted tenant degrades to write-through at once, never stalls,
// and still completes.
func TestQuotaDegradeToWriteThrough(t *testing.T) {
	st := quotaRun(t, mpi.Info{HintTenantPolicy: PolicyWriteThrough, HintFlushFlag: FlushOnClose})
	if st.QuotaWriteThroughs == 0 {
		t.Error("expected pressure write-throughs under the writethrough policy")
	}
	if st.QuotaStalls != 0 {
		t.Errorf("writethrough policy must not stall (got %d stalls)", st.QuotaStalls)
	}
	if st.CacheWrites == 0 {
		t.Error("writes under quota should still hit the cache")
	}
}
