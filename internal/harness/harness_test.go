package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mpe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// tinySweep runs fast: 8 nodes × 4 ranks, small files.
func tinySpec(cs Case, aggs int) Spec {
	w := workloads.CollPerf{RunBytes: 64 << 10, RunsY: 4, RunsZ: 4} // 1 MB/proc
	spec := DefaultSpec(w, cs, aggs, 4<<20)
	spec.Cluster = Scaled(7, 8, 4)
	spec.NFiles = 2
	spec.ComputeDelay = 2 * sim.Second
	return spec
}

func TestRunProducesBandwidthAndBreakdown(t *testing.T) {
	res, err := Run(tinySpec(CacheDisabled, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BandwidthGBs <= 0 {
		t.Fatalf("bandwidth = %f", res.BandwidthGBs)
	}
	if res.TotalBytes != 2*32<<20 {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d", len(res.Phases))
	}
	if res.Breakdown["shuffle_all2all"] <= 0 || res.Breakdown["write"] <= 0 {
		t.Fatalf("breakdown missing: %v", res.Breakdown)
	}
	if res.PeakBufBytes <= 0 {
		t.Fatal("peak buffer not recorded")
	}
}

// TestCollPerfWorkersAreRanks checks that only ranks take worker
// coroutines in a coll_perf cell. With the cache disabled, the aggregators'
// 16 MB windows each stream to four PFS targets from step processes; with
// it enabled, the sync threads drain the cache as step processes too.
func TestCollPerfWorkersAreRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("two coll_perf cells; skipped under -short")
	}
	for _, c := range []Case{CacheDisabled, CacheEnabled} {
		spec := tinySpec(c, 4)
		spec.CBBuffer = 16 << 20
		spec.ComputeDelay = 0 // nothing hides the sync: every close waits on it
		res, cl, err := run(spec)
		if err != nil {
			t.Fatal(err)
		}
		ranks := int64(cl.World.Size())
		if got := cl.Kernel.WorkersStarted(); got != ranks {
			t.Errorf("%s: %d workers started, want %d, one per rank", c, got, ranks)
		}
		if c == CacheEnabled && res.Breakdown[mpe.PhaseNotHiddenSync] <= 0 {
			t.Errorf("%s: no flush waited on a sync thread", c)
		}
	}
}

func TestCacheCasesOrdering(t *testing.T) {
	// Theoretical >= enabled, and with plenty of aggregators both beat
	// disabled: the paper's headline result at small scale.
	bw := map[Case]float64{}
	for _, cs := range AllCases {
		res, err := Run(tinySpec(cs, 8))
		if err != nil {
			t.Fatal(err)
		}
		bw[cs] = res.BandwidthGBs
	}
	if bw[CacheTheoretical] < bw[CacheEnabled]*0.95 {
		t.Fatalf("theoretical (%f) must be >= enabled (%f)", bw[CacheTheoretical], bw[CacheEnabled])
	}
	if bw[CacheEnabled] <= bw[CacheDisabled] {
		t.Fatalf("cache (%f) must beat disabled (%f) with ample aggregators", bw[CacheEnabled], bw[CacheDisabled])
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinySpec(CacheEnabled, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec(CacheEnabled, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a.BandwidthGBs != b.BandwidthGBs || a.WallTime != b.WallTime {
		t.Fatalf("same seed must reproduce exactly: %f/%v vs %f/%v",
			a.BandwidthGBs, a.WallTime, b.BandwidthGBs, b.WallTime)
	}
}

func TestPayloadModeMatchesMetadataOnlyTiming(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy end-to-end run; skipped in -short mode")
	}
	spec := tinySpec(CacheEnabled, 4)
	m, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Cluster.Payload = true
	p, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Control flow is identical, so virtual timings must agree exactly.
	if m.WallTime != p.WallTime || m.BandwidthGBs != p.BandwidthGBs {
		t.Fatalf("payload mode changed timing: %v/%f vs %v/%f",
			m.WallTime, m.BandwidthGBs, p.WallTime, p.BandwidthGBs)
	}
}

// TestBandwidthEq2 pins Equation 2's close-wait rules on 1 GB of data:
// the 10 ms noise floor, the last-sync rule and the zero denominator.
func TestBandwidthEq2(t *testing.T) {
	ms := sim.Millisecond
	for _, c := range []struct {
		name     string
		lastSync bool
		times    []PhaseMetrics
		waits    []sim.Time // close waits Eq. 2 counts
		gbs      float64
	}{
		{"wait under the floor is dropped", true, []PhaseMetrics{{100 * ms, 9 * ms}}, []sim.Time{0}, 10},
		{"last wait excluded", false, []PhaseMetrics{{100 * ms, 50 * ms}, {100 * ms, 50 * ms}}, []sim.Time{50 * ms, 0}, 4},
		{"last wait counted with lastSync", true, []PhaseMetrics{{100 * ms, 50 * ms}, {50 * ms, 50 * ms}}, []sim.Time{50 * ms, 50 * ms}, 4},
		{"zero denominator", true, []PhaseMetrics{{0, 5 * ms}}, []sim.Time{0}, 0},
	} {
		gbs := bandwidth(c.times, 1e9, c.lastSync)
		if math.Abs(gbs-c.gbs) > 1e-9 {
			t.Errorf("%s: bandwidth %v GB/s, want %v", c.name, gbs, c.gbs)
		}
		for k, tm := range c.times {
			if tm.CloseWait != c.waits[k] {
				t.Errorf("%s: file %d counts close wait %v, want %v", c.name, k, tm.CloseWait, c.waits[k])
			}
		}
	}
}

func TestIncludeLastSyncLowersBandwidth(t *testing.T) {
	with := tinySpec(CacheEnabled, 2) // few aggregators: sync is slow
	with.IncludeLastSync = true
	without := tinySpec(CacheEnabled, 2)
	a, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if a.BandwidthGBs >= b.BandwidthGBs {
		t.Fatalf("last-sync accounting must lower bandwidth: %f vs %f", a.BandwidthGBs, b.BandwidthGBs)
	}
	if last := a.Phases[len(a.Phases)-1]; last.CloseWait <= 0 {
		t.Fatal("last phase must expose sync wait when included")
	}
}

func TestSweepAndRenderers(t *testing.T) {
	w := workloads.CollPerf{RunBytes: 64 << 10, RunsY: 2, RunsZ: 2}
	sw := Sweep{
		Aggregators: []int{2, 4},
		CBBytes:     []int64{1 << 20},
		Cluster:     Scaled(7, 4, 2),
		NFiles:      1,
		Compute:     sim.Second,
	}
	sr, err := RunSweep(w, AllCases, sw, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 2 {
		t.Fatalf("cells = %d", len(sr.Cells))
	}
	bwTable := sr.RenderBandwidth("Fig 4")
	if !strings.Contains(bwTable, "2_1mb") || !strings.Contains(bwTable, "BW Cache Enabled") {
		t.Fatalf("bandwidth table malformed:\n%s", bwTable)
	}
	bd := sr.RenderBreakdown("Fig 5", CacheEnabled)
	if !strings.Contains(bd, "shuffle_all2all") || !strings.Contains(bd, "not_hidden_sync") {
		t.Fatalf("breakdown table malformed:\n%s", bd)
	}
	csv := sr.RenderCSV()
	if !strings.Contains(csv, "coll_perf,2,1,disabled") || !strings.Contains(csv, "peak_buf_mb") {
		t.Fatalf("csv malformed:\n%s", csv)
	}
}

func TestSpecLabel(t *testing.T) {
	spec := DefaultSpec(workloads.DefaultIOR(), CacheEnabled, 16, 8<<20)
	if spec.Label() != "16_8mb" {
		t.Fatalf("label = %s", spec.Label())
	}
}

func TestDeepERProfile(t *testing.T) {
	cfg := DeepER(1)
	if cfg.Nodes != 64 || cfg.RanksPerNode != 8 {
		t.Fatalf("profile = %+v", cfg)
	}
	if cfg.PFS.Targets != 4 || cfg.PFS.DefaultStripeSize != 4<<20 {
		t.Fatal("pfs profile wrong")
	}
	cl := NewCluster(Scaled(1, 2, 2))
	if cl.World.Size() != 4 || len(cl.NVMs) != 2 {
		t.Fatal("cluster assembly wrong")
	}
}

func TestClusterReportContents(t *testing.T) {
	spec := tinySpec(CacheEnabled, 4)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"global file system", "target 0", "local SSDs", "network"} {
		if !strings.Contains(res.Report, want) {
			t.Fatalf("report missing %q:\n%s", want, res.Report)
		}
	}
}

func TestPackedAggregatorPlacementHurtsCache(t *testing.T) {
	// cb_config_list "*:8" stuffs all aggregators onto one node: they
	// share a single SSD and NIC, so cached bandwidth collapses relative
	// to the default one-per-node spread.
	spread := tinySpec(CacheEnabled, 8)
	res1, err := Run(spread)
	if err != nil {
		t.Fatal(err)
	}
	// Same spec, packed placement.
	packed := tinySpec(CacheEnabled, 8)
	packed.ExtraHints = map[string]string{"cb_config_list": "*:8"}
	res2, err := Run(packed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BandwidthGBs >= res1.BandwidthGBs {
		t.Fatalf("packed placement (%.2f) must lose to spread (%.2f)",
			res2.BandwidthGBs, res1.BandwidthGBs)
	}
}

func TestFaultScheduleReplaysByteIdentical(t *testing.T) {
	spec := tinySpec(CacheEnabled, 4)
	spec.FaultSpec = "degrade-target,target=1,factor=0.25,from=100ms,to=3s;degrade-link,node=0,factor=0.5,from=1s,to=2s"
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultReport == "" || a.FaultReport != b.FaultReport {
		t.Fatalf("fault report must replay byte-identically:\n%s\nvs\n%s", a.FaultReport, b.FaultReport)
	}
	if a.WallTime != b.WallTime || a.BandwidthGBs != b.BandwidthGBs {
		t.Fatalf("seeded fault run must replay exactly: %v/%f vs %v/%f",
			a.WallTime, a.BandwidthGBs, b.WallTime, b.BandwidthGBs)
	}
}

func TestDegradedTargetStretchesNotHiddenSync(t *testing.T) {
	// With no compute phase to hide behind, the cache sync lands in
	// not_hidden_sync; a degraded PFS target must stretch it.
	mk := func(faults string) Spec {
		spec := tinySpec(CacheEnabled, 4)
		spec.ComputeDelay = 0
		spec.FaultSpec = faults
		return spec
	}
	healthy, err := Run(mk(""))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Run(mk("degrade-target,target=0,factor=0.2,at=0s;" +
		"degrade-target,target=1,factor=0.2,at=0s;" +
		"degrade-target,target=2,factor=0.2,at=0s;" +
		"degrade-target,target=3,factor=0.2,at=0s"))
	if err != nil {
		t.Fatal(err)
	}
	h, d := healthy.Breakdown[mpe.PhaseNotHiddenSync], degraded.Breakdown[mpe.PhaseNotHiddenSync]
	if d <= h {
		t.Fatalf("degraded targets must stretch not_hidden_sync: healthy %v, degraded %v", h, d)
	}
	if degraded.BandwidthGBs >= healthy.BandwidthGBs {
		t.Fatalf("degraded run must lose bandwidth: %f vs %f",
			degraded.BandwidthGBs, healthy.BandwidthGBs)
	}
}

func TestBadFaultSpecFailsRun(t *testing.T) {
	spec := tinySpec(CacheDisabled, 2)
	spec.FaultSpec = "melt-cpu,node=0,at=1s"
	if _, err := Run(spec); err == nil {
		t.Fatal("unknown fault kind must fail the run")
	}
	spec.FaultSpec = "fail-target,target=99,at=1s"
	if _, err := Run(spec); err == nil {
		t.Fatal("out-of-range target must fail arming")
	}
}
