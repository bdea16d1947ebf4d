package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/sim"
)

// The TestScale_ suite runs kilo-rank collective writes — clean, lossy and
// aggregator-crash — and gates on two oracles: byte conservation (checked
// inside RunScale) and determinism (same seed, same report digest). The
// scale is flag-tunable:
//
//	go test ./internal/harness -run '^TestScale_' -scale.ranks=4096 -scale.seed=42
//
// Under -short (the race pass) the suite shrinks to 256 ranks so the race
// runtime finishes in seconds.
var (
	scaleRanks  = flag.Int("scale.ranks", 1024, "TestScale_ total rank count")
	scaleNodes  = flag.Int("scale.nodes", 0, "TestScale_ node count (0 = ranks/8)")
	scaleSeed   = flag.Int64("scale.seed", 42, "TestScale_ kernel seed")
	scaleDrop   = flag.Int("scale.drop", 10, "TestScale_ lossy-variant drop percent")
	scaleUpdate = flag.Bool("scale.update", false, "regenerate testdata/scale_digest_*.json")
)

// scaleGoldenRanks are the scales with committed digest files.
var scaleGoldenRanks = []int{1024, 4096}

// scaleGoldenExtra are committed digest cells outside the variant x scale
// matrix, by file name: a staggered two-node crash, whose second node dies
// 1 ms after the first.
var scaleGoldenExtra = map[string]ScaleConfig{
	"scale_digest_crash2_1024.json": {Variant: ScaleCrash, Ranks: 1024, CrashNodes: 2},
}

// scaleTestConfig builds the flag-driven config for one variant.
func scaleTestConfig(t *testing.T, v ScaleVariant) ScaleConfig {
	t.Helper()
	ranks := *scaleRanks
	if testing.Short() && ranks > 256 {
		ranks = 256
	}
	cfg := ScaleConfig{Variant: v, Ranks: ranks, Seed: *scaleSeed}
	if *scaleNodes > 0 {
		if ranks%*scaleNodes != 0 {
			t.Fatalf("-scale.ranks=%d not divisible by -scale.nodes=%d", ranks, *scaleNodes)
		}
		cfg.PerNode = ranks / *scaleNodes
	}
	if v == ScaleLossy {
		cfg.DropPct = *scaleDrop
	}
	return cfg
}

// runScaleDeterministic runs cfg twice and fails unless both runs produce
// the same digest: every digest-covered field must be a pure function of
// the config, whatever the host's goroutine scheduling did.
func runScaleDeterministic(t *testing.T, cfg ScaleConfig) *ScaleReport {
	t.Helper()
	rep, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunScale(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if d1, d2 := rep.Digest(), again.Digest(); d1 != d2 {
		t.Errorf("nondeterministic run: digest %s then %s\nfirst:\n%ssecond:\n%s",
			d1, d2, rep.Text(), again.Text())
	}
	t.Logf("%s ranks=%d events=%d wall=%dms host=%dms ev/s=%.0f digest=%s",
		rep.Variant, rep.Ranks, rep.Events, rep.WallTimeNs/1e6, rep.HostNs/1e6,
		rep.EventsPerSec, rep.Digest())
	checkScaleGolden(t, cfg, rep)
	return rep
}

func TestScale_Clean(t *testing.T) {
	cfg := scaleTestConfig(t, ScaleClean)
	rep := runScaleDeterministic(t, cfg)
	if rep.PFSBytes < rep.ExpectedBytes {
		t.Errorf("PFS received %d bytes, want >= %d", rep.PFSBytes, rep.ExpectedBytes)
	}
	if rep.Retransmits != 0 || rep.NetDrops != 0 {
		t.Errorf("clean run saw retransmits=%d net_drops=%d, want 0",
			rep.Retransmits, rep.NetDrops)
	}
}

func TestScale_Lossy(t *testing.T) {
	cfg := scaleTestConfig(t, ScaleLossy)
	rep := runScaleDeterministic(t, cfg)
	if rep.NetDrops == 0 {
		t.Error("lossy run dropped no messages; the fault was not armed")
	}
	if rep.Retransmits == 0 {
		t.Error("lossy run retransmitted nothing; reliable delivery was not exercised")
	}
	if rep.PFSBytes < rep.ExpectedBytes {
		t.Errorf("PFS received %d bytes, want >= %d", rep.PFSBytes, rep.ExpectedBytes)
	}
}

func TestScale_Crash(t *testing.T) {
	cfg := scaleTestConfig(t, ScaleCrash)
	rep := runScaleDeterministic(t, cfg)
	if rep.FailoverEpochs == 0 {
		t.Error("crash run recorded no failover epochs; the crash was not detected")
	}
}

// scaleAllocGrowthMax bounds how much the bytes allocated per rank may grow
// when a clean scale run goes from 512 to 2048 ranks. Per-rank work that
// is O(its own pieces) keeps the ratio near 1; one O(ranks) vector per
// rank per collective round makes it about 2.3.
const scaleAllocGrowthMax = 1.5

// TestScaleAllocPerRankFlat is the host-cost gate of the collective
// planner: a clean scale run at 2048 ranks may allocate at most
// scaleAllocGrowthMax times the bytes per rank of the same run at 512.
// Unlike host time, allocation is stable enough to gate on every run.
func TestScaleAllocPerRankFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("two kilo-rank runs; skipped under -short")
	}
	perRank := func(ranks int) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunScale(ScaleConfig{Variant: ScaleClean, Ranks: ranks}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(ranks)
	}
	small, large := perRank(512), perRank(2048)
	t.Logf("allocated per rank: %.1f KiB at 512 ranks, %.1f KiB at 2048 (%.2fx)",
		small/1024, large/1024, large/small)
	if large > scaleAllocGrowthMax*small {
		t.Errorf("allocation per rank grew %.2fx from 512 to 2048 ranks (%.1f -> %.1f KiB), want <= %.1fx",
			large/small, small/1024, large/1024, scaleAllocGrowthMax)
	}
}

// scaleBytesPerRank is the measured heap allocation per rank of one warm
// 1024-rank clean RunScale (TotalAlloc delta / ranks; 5,037–5,052 over
// repeated runs on a 2-core x86-64 VM with go1.24). The collective open
// shares its parsed hints, cache options and cache metric handles across
// ranks; a change that makes some of that per-rank again shows up here.
const scaleBytesPerRank = 5052

// TestScaleBytesPerRank gates the simulator's allocation per simulated rank:
// one warm 1024-rank clean RunScale may allocate at most 5% more bytes per
// rank than scaleBytesPerRank.
func TestScaleBytesPerRank(t *testing.T) {
	if testing.Short() {
		t.Skip("two kilo-rank runs; skipped under -short")
	}
	const ranks = 1024
	cfg := ScaleConfig{Variant: ScaleClean, Ranks: ranks}
	if _, err := RunScale(cfg); err != nil { // warm: first-run package state
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunScale(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRank := float64(after.TotalAlloc-before.TotalAlloc) / ranks
	t.Logf("allocated per rank: %.0f bytes (recorded %d)", perRank, scaleBytesPerRank)
	if limit := scaleBytesPerRank * 1.05; perRank > limit {
		t.Errorf("allocated %.0f bytes per rank at %d ranks, want <= %.0f (recorded %d + 5%%)",
			perRank, ranks, limit, scaleBytesPerRank)
	}
}

// TestScale_ObservabilityNoPerturbation asserts that attaching the tracer
// and metrics registry does not perturb the simulation: virtual time,
// event counts and every other digest-covered field stay identical. The
// observed run IS the baseline run.
func TestScale_ObservabilityNoPerturbation(t *testing.T) {
	for _, v := range []ScaleVariant{ScaleClean, ScaleLossy} {
		cfg := ScaleConfig{Variant: v, Ranks: 256, Seed: *scaleSeed}
		bare, err := RunScale(cfg)
		if err != nil {
			t.Fatalf("%s bare: %v", v, err)
		}
		cfg.Metrics = true
		cfg.TraceEvents = true
		observed, err := RunScale(cfg)
		if err != nil {
			t.Fatalf("%s observed: %v", v, err)
		}
		if bare.Digest() != observed.Digest() {
			t.Errorf("%s: observability perturbed the run\nbare:\n%sobserved:\n%s",
				v, bare.Text(), observed.Text())
		}
	}
}

func scaleGoldenPath(v ScaleVariant, ranks int) string {
	return filepath.Join("testdata", fmt.Sprintf("scale_digest_%s_%d.json", v, ranks))
}

// checkScaleGolden compares rep against the committed digest when the
// config is one of the golden cells (default knobs at a golden scale);
// flag-tweaked runs have no baseline and are skipped.
func checkScaleGolden(t *testing.T, cfg ScaleConfig, rep *ScaleReport) {
	t.Helper()
	golden := false
	for _, r := range scaleGoldenRanks {
		if cfg.Ranks == r {
			golden = true
		}
	}
	if !golden || cfg.withDefaults() != (ScaleConfig{Variant: cfg.Variant, Ranks: cfg.Ranks}).withDefaults() {
		return
	}
	path := scaleGoldenPath(cfg.Variant, cfg.Ranks)
	if *scaleUpdate {
		writeScaleGolden(t, path, rep)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no committed digest for this cell (regenerate with -scale.update): %v", err)
	}
	var g ScaleGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if got := rep.Digest(); got != g.Digest {
		t.Errorf("digest mismatch vs %s:\n got %s\nwant %s\ngot report:\n%swant report:\n%s",
			path, got, g.Digest, rep.Text(), g.Report.Text())
	}
}

func writeScaleGolden(t *testing.T, path string, rep *ScaleReport) {
	t.Helper()
	clean := *rep
	clean.HostNs, clean.EventsPerSec = 0, 0 // host-dependent, not digested
	b, err := json.MarshalIndent(ScaleGolden{Report: clean, Digest: rep.Digest()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// TestScale_GoldenDigests replays every committed scale digest: each file
// pins one (variant, scale) cell, and any divergence — an event reordered,
// a retransmit gained, a byte lost — changes the digest. Under -short the
// 4096-rank cells are skipped. With -scale.update the full golden matrix
// is regenerated instead.
func TestScale_GoldenDigests(t *testing.T) {
	if *scaleUpdate {
		for _, v := range []ScaleVariant{ScaleClean, ScaleLossy, ScaleCrash} {
			for _, ranks := range scaleGoldenRanks {
				rep, err := RunScale(ScaleConfig{Variant: v, Ranks: ranks})
				if err != nil {
					t.Fatalf("%s/%d: %v", v, ranks, err)
				}
				writeScaleGolden(t, scaleGoldenPath(v, ranks), rep)
			}
		}
		for name, cfg := range scaleGoldenExtra {
			rep, err := RunScale(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			writeScaleGolden(t, filepath.Join("testdata", name), rep)
		}
		return
	}
	files, err := filepath.Glob(filepath.Join("testdata", "scale_digest_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed scale digests; regenerate with -scale.update")
	}
	sort.Strings(files)
	for _, path := range files {
		path := path
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var g ScaleGolden
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			if got := g.Report.Digest(); got != g.Digest {
				t.Fatalf("file self-check: report digests to %s but file claims %s", got, g.Digest)
			}
			if testing.Short() && g.Report.Ranks > 1024 {
				t.Skipf("skipping %d ranks in -short mode", g.Report.Ranks)
			}
			r := g.Report
			cfg := ScaleConfig{
				Variant: r.Variant, Ranks: r.Ranks, PerNode: r.PerNode, Seed: r.Seed,
				DropPct: r.DropPct, CrashNodes: r.CrashNodes, CrashAt: sim.Time(r.CrashAtNs),
				RunKB: r.RunKB,
			}
			rep, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Digest(); got != g.Digest {
				t.Errorf("digest mismatch:\n got %s\nwant %s\ngot report:\n%swant report:\n%s",
					got, g.Digest, rep.Text(), g.Report.Text())
			}
		})
	}
}

// A recorded floor sits at q1 - 3×IQR of the runs, and never below half
// the median, the fixed rule of the first baselines.
func TestSpreadFloor(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		median, floor float64
	}{
		// q1 = 102.25, q3 = 106.75: floor 102.25 - 3×4.5.
		{[]float64{108, 101, 109, 105, 104, 100, 106, 103, 107, 102}, 104.5, 88.75},
		// A wide spread would put the floor under median/2.
		{[]float64{10, 100, 200, 300, 400}, 200, 100},
		{[]float64{7}, 7, 7},
	} {
		if m, f := spreadFloor(tc.xs); m != tc.median || f != tc.floor {
			t.Errorf("spreadFloor(%v) = (%v, %v), want (%v, %v)", tc.xs, m, f, tc.median, tc.floor)
		}
	}
}

// TestScaleWorkersStarted gates the kernel's memory at scale: only ranks
// take worker coroutines. Messages, PFS streams and cache sync threads are
// step processes and take none, so a 1024-rank RunScale starts exactly
// 1024 workers in every variant. A process that starts a worker where a
// step process would do shows up here before it shows up in peak RSS.
func TestScaleWorkersStarted(t *testing.T) {
	if testing.Short() {
		t.Skip("three kilo-rank runs; skipped under -short")
	}
	for _, v := range []ScaleVariant{ScaleClean, ScaleLossy, ScaleCrash} {
		rep, err := RunScale(ScaleConfig{Variant: v, Ranks: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Workers != 1024 {
			t.Errorf("%s: %d workers started, want 1024, one per rank", v, rep.Workers)
		}
	}
}
