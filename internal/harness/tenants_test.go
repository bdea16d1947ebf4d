package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// tinyJob returns a small coll_perf job: 4 ranks × 16 KB blocks = 64 KB per
// file, in 8 KB collective rounds so quota pressure engages mid-file.
func tinyJob(name string, ranks int) JobSpec {
	return JobSpec{
		Name:        name,
		Ranks:       ranks,
		Workload:    workloads.CollPerf{RunBytes: 4 << 10, RunsY: 2, RunsZ: 2},
		Aggregators: 1,
		CBBuffer:    8 << 10,
	}
}

// oneNodeCluster puts every rank on one node so all jobs contend for the
// same NVM device.
func oneNodeCluster(seed int64, ranks int, ssdCap int64) ClusterConfig {
	cfg := Scaled(seed, 1, ranks)
	cfg.SSD.Capacity = ssdCap
	cfg.Payload = true
	return cfg
}

// admissionRejectionSpec: two tenants whose reservations cannot both fit.
func admissionRejectionSpec() MultiSpec {
	a := tinyJob("jobA", 2)
	a.Reserve = 80 << 10
	b := tinyJob("jobB", 2)
	b.Reserve = 50 << 10
	b.StartDelay = sim.Millisecond // deterministic arrival order: A admits first
	return MultiSpec{Cluster: oneNodeCluster(1, 4, 100<<10), Jobs: []JobSpec{a, b}, Metrics: true}
}

// queuedAdmissionSpec: the second tenant queues for the first's reservation.
func queuedAdmissionSpec() MultiSpec {
	a := tinyJob("jobA", 2)
	a.Reserve = 80 << 10
	b := tinyJob("jobB", 2)
	b.Reserve = 80 << 10
	b.Admit = "queue"
	b.StartDelay = sim.Millisecond
	return MultiSpec{Cluster: oneNodeCluster(2, 4, 100<<10), Jobs: []JobSpec{a, b}}
}

// noisyNeighborSpec: an unreserved two-file tenant beside a reserved one.
func noisyNeighborSpec() MultiSpec {
	noisy := tinyJob("noisy", 2)
	noisy.NFiles = 2
	quiet := tinyJob("quiet", 2)
	quiet.Reserve = 40 << 10
	quiet.StartDelay = sim.Millisecond
	return MultiSpec{Cluster: oneNodeCluster(5, 4, 64<<10), Jobs: []JobSpec{noisy, quiet}, Metrics: true}
}

// TestMultiTenantAdmissionRejection: two tenants whose reservations cannot
// both fit. The rejected tenant must complete uncached (fallback), not
// fail.
func TestMultiTenantAdmissionRejection(t *testing.T) {
	res, err := RunMulti(admissionRejectionSpec())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := res.Jobs[0], res.Jobs[1]
	if ra.Err != nil || rb.Err != nil {
		t.Fatalf("job errors: a=%v b=%v", ra.Err, rb.Err)
	}
	if ra.Fallbacks != 0 || ra.Stats.CacheWrites == 0 {
		t.Errorf("admitted tenant should run cached: fallbacks=%d writes=%d",
			ra.Fallbacks, ra.Stats.CacheWrites)
	}
	if rb.Fallbacks == 0 {
		t.Errorf("rejected tenant should fall back uncached: fallbacks=%d", rb.Fallbacks)
	}
	// The rejection itself is visible on the tenant-labelled counter (adio
	// drops the hooks object when the open falls back, so Stats can't carry
	// it).
	if text := res.Metrics.Text(); !strings.Contains(text, "cache_tenant_admit_rejects_total") {
		t.Errorf("admission rejection not recorded in metrics:\n%s", text)
	}
	if rb.Stats.CacheWrites != 0 {
		t.Errorf("rejected tenant wrote %d times to the cache", rb.Stats.CacheWrites)
	}
	if ra.BandwidthGBs <= 0 || rb.BandwidthGBs <= 0 {
		t.Errorf("both jobs must report bandwidth: a=%f b=%f", ra.BandwidthGBs, rb.BandwidthGBs)
	}
}

// TestMultiTenantQueuedAdmission: a queued tenant waits for the first
// tenant's close to release its reservation, then admits and runs cached.
func TestMultiTenantQueuedAdmission(t *testing.T) {
	res, err := RunMulti(queuedAdmissionSpec())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := res.Jobs[0], res.Jobs[1]
	if ra.Err != nil || rb.Err != nil {
		t.Fatalf("job errors: a=%v b=%v", ra.Err, rb.Err)
	}
	if rb.Fallbacks != 0 || rb.Stats.AdmitRejects != 0 {
		t.Errorf("queued tenant should admit after A closes: fallbacks=%d rejects=%d",
			rb.Fallbacks, rb.Stats.AdmitRejects)
	}
	if rb.Stats.CacheWrites == 0 {
		t.Error("queued tenant never reached the cache")
	}
}

// TestMultiTenantBackpressureThenAdmit: a tenant whose byte quota is
// smaller than one file blocks under pressure, the sync thread drains
// dirty extents, clean-extent eviction reclaims them, and the blocked
// write proceeds — no write-through, no failure.
func TestMultiTenantBackpressureThenAdmit(t *testing.T) {
	a := tinyJob("jobA", 4)
	a.QuotaBytes = 16 << 10 // two 8 KB rounds, file is 64 KB
	a.Policy = "block"
	res, err := RunMulti(MultiSpec{
		Cluster: oneNodeCluster(3, 4, 1<<20),
		Jobs:    []JobSpec{a},
	})
	if err != nil {
		t.Fatal(err)
	}
	ra := res.Jobs[0]
	if ra.Err != nil {
		t.Fatalf("job error: %v", ra.Err)
	}
	if ra.Stats.QuotaStalls == 0 {
		t.Error("expected quota stalls under a 16 KB quota")
	}
	if ra.Stats.EvictedBytes == 0 {
		t.Error("expected clean-extent eviction to reclaim quota")
	}
	if ra.Stats.QuotaWriteThroughs != 0 {
		t.Errorf("backpressure should admit, not degrade: %d write-throughs",
			ra.Stats.QuotaWriteThroughs)
	}
	if ra.Stats.QuotaStallTime <= 0 {
		t.Error("stall time not accounted")
	}
}

// TestMultiTenantDegradeToWriteThrough: with e10_tenant_policy=writethrough
// and flush_onclose (nothing drains mid-file, so nothing is evictable), a
// quota-exhausted tenant degrades to write-through immediately and still
// completes.
func TestMultiTenantDegradeToWriteThrough(t *testing.T) {
	a := tinyJob("jobA", 4)
	a.QuotaBytes = 16 << 10
	a.Policy = "writethrough"
	a.FlushFlag = "flush_onclose"
	res, err := RunMulti(MultiSpec{
		Cluster: oneNodeCluster(4, 4, 1<<20),
		Jobs:    []JobSpec{a},
	})
	if err != nil {
		t.Fatal(err)
	}
	ra := res.Jobs[0]
	if ra.Err != nil {
		t.Fatalf("job error: %v", ra.Err)
	}
	if ra.Stats.QuotaWriteThroughs == 0 {
		t.Error("expected pressure write-throughs under writethrough policy")
	}
	if ra.Stats.QuotaStalls != 0 {
		t.Errorf("writethrough policy must not stall (got %d stalls)", ra.Stats.QuotaStalls)
	}
	if ra.Stats.CacheWrites == 0 {
		t.Error("writes under quota should still hit the cache")
	}
}

// TestMultiTenantNoisyNeighborIsolation: an unreserved noisy tenant cannot
// starve a tenant holding a reservation; both complete and the reserved
// tenant runs fully cached.
func TestMultiTenantNoisyNeighborIsolation(t *testing.T) {
	res, err := RunMulti(noisyNeighborSpec())
	if err != nil {
		t.Fatal(err)
	}
	rn, rq := res.Jobs[0], res.Jobs[1]
	if rn.Err != nil || rq.Err != nil {
		t.Fatalf("job errors: noisy=%v quiet=%v", rn.Err, rq.Err)
	}
	if rq.Stats.AdmitRejects != 0 || rq.Fallbacks != 0 {
		t.Errorf("reserved tenant displaced: rejects=%d fallbacks=%d",
			rq.Stats.AdmitRejects, rq.Fallbacks)
	}
	if rq.Stats.CacheWrites == 0 {
		t.Error("reserved tenant never reached the cache")
	}
	// Per-tenant metric series must be present and labelled.
	text := res.Metrics.Text()
	if !strings.Contains(text, "tenant=") {
		t.Errorf("metrics lack tenant labels:\n%s", text)
	}
}

// TestRunMultiValidation pins the spec errors.
func TestRunMultiValidation(t *testing.T) {
	w := workloads.CollPerf{RunBytes: 4 << 10, RunsY: 2, RunsZ: 2}
	cases := []MultiSpec{
		{Cluster: Scaled(1, 1, 2)},
		{Cluster: Scaled(1, 1, 2), Jobs: []JobSpec{{Name: "", Ranks: 1, Workload: w}}},
		{Cluster: Scaled(1, 1, 2), Jobs: []JobSpec{
			{Name: "a", Ranks: 1, Workload: w}, {Name: "a", Ranks: 1, Workload: w}}},
		{Cluster: Scaled(1, 1, 2), Jobs: []JobSpec{{Name: "a", Ranks: 0, Workload: w}}},
		{Cluster: Scaled(1, 1, 2), Jobs: []JobSpec{{Name: "a", Ranks: 1}}},
		{Cluster: Scaled(1, 1, 2), Jobs: []JobSpec{{Name: "a", Ranks: 3, Workload: w}}},
	}
	for i, spec := range cases {
		if _, err := RunMulti(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

// TestMultiGolden pins the two-job tenant runs' per-job outcomes byte for
// byte; regenerate deliberately with
//
//	go test ./internal/harness -run TestMultiGolden -update
func TestMultiGolden(t *testing.T) {
	// One JSON line per job; RunWall is the whole run's MultiResult.WallTime.
	type jobOut struct {
		Spec         string
		RunWall      sim.Time
		Name         string
		WallTime     sim.Time
		TotalBytes   int64
		BandwidthGBs float64
		Stats        core.Stats
		Fallbacks    int
		Err          string
	}
	var lines [][]byte
	for _, c := range []struct {
		name string
		spec MultiSpec
	}{
		{"admission_rejection", admissionRejectionSpec()},
		{"queued_admission", queuedAdmissionSpec()},
		{"noisy_neighbor", noisyNeighborSpec()},
	} {
		res, err := RunMulti(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, j := range res.Jobs {
			jo := jobOut{Spec: c.name, RunWall: res.WallTime, Name: j.Name, WallTime: j.WallTime,
				TotalBytes: j.TotalBytes, BandwidthGBs: j.BandwidthGBs, Stats: j.Stats, Fallbacks: j.Fallbacks}
			if j.Err != nil {
				jo.Err = j.Err.Error()
			}
			line, err := json.Marshal(jo)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, line)
		}
	}
	got := append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
	golden := filepath.Join("testdata", "multi_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("multi-tenant outcomes drifted from %s:\n got: %s\nwant: %s", golden, got, want)
	}
}

// TestRunMultiObservesEveryJobRank: a traced, metered multi-tenant run
// mirrors every job rank's MPE phases onto its trace track and into its
// phase_ns histograms, as Run does.
func TestRunMultiObservesEveryJobRank(t *testing.T) {
	spec := admissionRejectionSpec()
	spec.TraceEvents = true
	res, err := RunMulti(spec)
	if err != nil {
		t.Fatal(err)
	}
	phases := make(map[string]int)
	for _, ev := range res.Trace.Events() {
		if ev.Cat == "phase" {
			phases[res.Trace.TrackName(ev.Track)]++
		}
	}
	for rank := 0; rank < 4; rank++ {
		if phases[fmt.Sprintf("rank %d", rank)] == 0 {
			t.Errorf("rank %d: no phase spans on its track (phase spans by track: %v)", rank, phases)
		}
		if res.Metrics.FindHistogram("phase_ns", metrics.L(metrics.KeyLayer, "adio"),
			metrics.L(metrics.KeyPhase, "open"), metrics.L(metrics.KeyRank, strconv.Itoa(rank))) == nil {
			t.Errorf("rank %d: no phase_ns histogram", rank)
		}
	}
}
