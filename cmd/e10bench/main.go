// Command e10bench regenerates the paper's evaluation figures.
//
// Figures 4, 5 and 6 come from the coll_perf sweep, Figures 7 and 8 from
// the Flash-IO sweep, and Figures 9 and 10 from the IOR sweep (which, as
// in §IV-D, includes the last write phase's non-hidden synchronisation).
// Each sweep covers the <aggregators>_<coll_bufsize> grid for the cases
// "BW Cache Disabled", "BW Cache Enabled" and "TBW Cache Enable".
//
//	e10bench -fig all              # everything, quick grid
//	e10bench -fig 4 -sweep paper   # Figure 4 on the full 4×5 grid
//	e10bench -fig 9 -scale 8x4     # IOR figures on a shrunken cluster
//	e10bench -fig 7 -csv out.csv   # also dump CSV for plotting
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 4..10, or 'all'")
		sweep    = flag.String("sweep", "quick", "grid: 'quick' (3 buffer sizes) or 'paper' (full 4x5 grid)")
		seed     = flag.Int64("seed", 20160901, "simulation seed")
		scale    = flag.String("scale", "", "shrink the cluster, e.g. '16x8' for 16 nodes x 8 ranks")
		csv      = flag.String("csv", "", "also write results as CSV to this file")
		files    = flag.Int("files", 4, "files written per experiment")
		ablation = flag.Bool("ablation", false, "run the design-choice ablations instead of the figures")
		faults   = flag.String("faults", "", "fault schedule armed on every cell (see internal/fault)")
		fdemo    = flag.Bool("faultdemo", false, "run the degraded-PFS-target scenario instead of the figures")
		brecord  = flag.String("bench-record", "", "run the fixed regression matrix and write the baseline JSON to this file")
		bcompare = flag.String("bench-compare", "", "run the fixed regression matrix and compare against this baseline JSON (exit 1 on >2% regression); also gates the newest BENCH_SCALE_*.json kilo-rank baseline when one is committed")
		srecord  = flag.String("scale-bench-record", "", "run the 4096-rank kilo-scale benchmark 10 times and write the baseline JSON, with floors from the runs' spread, to this file")
		scrit    = flag.String("scale-critpath", "", "run a kilo-rank scale variant (clean | lossy | crash) with the critical-path analyzer and print the report")
		sranks   = flag.Int("scale-ranks", 4096, "rank count for -scale-critpath")
	)
	flag.Parse()

	if *brecord != "" {
		runBenchRecord(*seed, *brecord)
		return
	}
	if *bcompare != "" {
		runBenchCompare(*seed, *bcompare)
		runScaleBenchCompare()
		return
	}
	if *srecord != "" {
		runScaleBenchRecord(*seed, *srecord)
		return
	}
	if *scrit != "" {
		runScaleCritPath(*scrit, *sranks)
		return
	}

	var sw harness.Sweep
	switch *sweep {
	case "quick":
		sw = harness.QuickSweep(*seed)
	case "paper":
		sw = harness.PaperSweep(*seed)
	default:
		fatalf("unknown -sweep %q", *sweep)
	}
	sw.NFiles = *files
	sw.FaultSpec = *faults
	if *scale != "" {
		var nodes, ppn int
		if _, err := fmt.Sscanf(*scale, "%dx%d", &nodes, &ppn); err != nil || nodes < 1 || ppn < 1 {
			fatalf("bad -scale %q (want e.g. 16x8)", *scale)
		}
		sw.Cluster = harness.Scaled(*seed, nodes, ppn)
		// Keep aggregator counts meaningful on the smaller machine.
		var aggs []int
		for _, a := range sw.Aggregators {
			if a <= nodes*ppn {
				aggs = append(aggs, a)
			}
		}
		sw.Aggregators = aggs
	}

	if *ablation {
		runAblations(sw)
		return
	}
	if *fdemo {
		runFaultDemo(sw)
		return
	}

	want := map[int]bool{}
	if *fig == "all" {
		for f := 4; f <= 10; f++ {
			want[f] = true
		}
	} else {
		var f int
		if _, err := fmt.Sscanf(*fig, "%d", &f); err != nil || f < 4 || f > 10 {
			fatalf("bad -fig %q (want 4..10 or all)", *fig)
		}
		want[f] = true
	}

	var csvOut strings.Builder
	runSweep := func(w workloads.Workload, includeLast bool) *harness.SweepResult {
		fmt.Fprintf(os.Stderr, "running %s sweep (%d aggregator counts x %d buffer sizes x 3 cases)...\n",
			w.Name(), len(sw.Aggregators), len(sw.CBBytes))
		sr, err := harness.RunSweep(w, harness.AllCases, sw, includeLast)
		if err != nil {
			fatalf("%s sweep: %v", w.Name(), err)
		}
		csvOut.WriteString(sr.RenderCSV())
		return sr
	}

	if want[4] || want[5] || want[6] {
		sr := runSweep(workloads.DefaultCollPerf(), false)
		if want[4] {
			fmt.Println(sr.RenderBandwidth("Figure 4"))
		}
		if want[5] {
			fmt.Println(sr.RenderBreakdown("Figure 5", harness.CacheEnabled))
		}
		if want[6] {
			fmt.Println(sr.RenderBreakdown("Figure 6", harness.CacheDisabled))
		}
	}
	if want[7] || want[8] {
		sr := runSweep(workloads.DefaultFlashIO(), false)
		if want[7] {
			fmt.Println(sr.RenderBandwidth("Figure 7"))
		}
		if want[8] {
			fmt.Println(sr.RenderBreakdown("Figure 8", harness.CacheEnabled))
		}
	}
	if want[9] || want[10] {
		sr := runSweep(workloads.DefaultIOR(), true)
		if want[9] {
			fmt.Println(sr.RenderBandwidth("Figure 9"))
		}
		if want[10] {
			fmt.Println(sr.RenderBreakdown("Figure 10", harness.CacheEnabled))
		}
	}

	if *csv != "" {
		if err := os.WriteFile(*csv, []byte(csvOut.String()), 0o644); err != nil {
			fatalf("write csv: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csv)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "e10bench: "+format+"\n", args...)
	os.Exit(1)
}

// runAblations exercises the design choices DESIGN.md calls out, one table
// each: sync-buffer size, flush policy, aggregator ratio and I/O-server
// jitter sensitivity.
func runAblations(sw harness.Sweep) {
	w := workloads.DefaultCollPerf()
	base := func(cs harness.Case, aggs int) harness.Spec {
		spec := harness.DefaultSpec(w, cs, aggs, 16<<20)
		spec.Cluster = sw.Cluster
		spec.NFiles = sw.NFiles
		spec.ComputeDelay = sw.Compute
		return spec
	}
	run := func(spec harness.Spec) *harness.Result {
		res, err := harness.Run(spec)
		if err != nil {
			fatalf("ablation: %v", err)
		}
		return res
	}

	fmt.Println("Ablation A — ind_wr_buffer_size (cache sync granularity), 8 aggregators")
	fmt.Printf("%-12s %12s %18s\n", "sync_buf", "BW [GB/s]", "not_hidden_sync[s]")
	for _, buf := range []int64{128 << 10, 512 << 10, 2 << 20, 8 << 20} {
		spec := base(harness.CacheEnabled, 8)
		spec.SyncBuffer = buf
		res := run(spec)
		fmt.Printf("%-12s %12.2f %18.2f\n", byteLabel(buf), res.BandwidthGBs,
			res.Breakdown["not_hidden_sync"].Seconds())
	}

	fmt.Println("\nAblation B — e10_cache_flush_flag, 16 aggregators, last sync counted")
	fmt.Printf("%-18s %12s\n", "flush_flag", "BW [GB/s]")
	for _, flush := range []string{"flush_immediate", "flush_onclose", "flush_adaptive"} {
		spec := base(harness.CacheEnabled, 16)
		spec.FlushFlag = flush
		spec.IncludeLastSync = true
		res := run(spec)
		fmt.Printf("%-18s %12.2f\n", flush, res.BandwidthGBs)
	}

	fmt.Println("\nAblation C — aggregator / compute-node ratio (the paper's central knob)")
	fmt.Printf("%-6s %14s %14s\n", "aggs", "enabled[GB/s]", "disabled[GB/s]")
	for _, aggs := range sw.Aggregators {
		en := run(base(harness.CacheEnabled, aggs))
		dis := run(base(harness.CacheDisabled, aggs))
		fmt.Printf("%-6d %14.2f %14.2f\n", aggs, en.BandwidthGBs, dis.BandwidthGBs)
	}

	fmt.Println("\nAblation D — I/O-server jitter (slowest-writer sensitivity), cache disabled")
	fmt.Printf("%-8s %12s %16s\n", "sigma", "BW [GB/s]", "post_write[s]")
	for _, sigma := range []float64{0, 0.25, 0.45, 0.9} {
		spec := base(harness.CacheDisabled, 32)
		if sigma > 0 {
			spec.Cluster.PFS.TargetJitter = sim.UnitLogNormal(sigma)
		} else {
			spec.Cluster.PFS.TargetJitter = nil
		}
		res := run(spec)
		fmt.Printf("%-8.2f %12.2f %16.2f\n", sigma, res.BandwidthGBs,
			res.Breakdown["post_write"].Seconds())
	}
}

// runFaultDemo measures the EXPERIMENTS.md fault scenario: collective-write
// bandwidth with one PFS data target degraded for most of the run, with and
// without the node-local cache. The cache hides the slow target behind the
// compute phases; without it the degradation lands on the write path.
func runFaultDemo(sw harness.Sweep) {
	w := workloads.DefaultCollPerf()
	const spec = "degrade-target,target=1,factor=0.25,from=1s,to=200s"
	run := func(cs harness.Case, faults string) *harness.Result {
		s := harness.DefaultSpec(w, cs, 16, 16<<20)
		s.Cluster = sw.Cluster
		s.NFiles = sw.NFiles
		s.ComputeDelay = sw.Compute
		s.FaultSpec = faults
		res, err := harness.Run(s)
		if err != nil {
			fatalf("faultdemo: %v", err)
		}
		return res
	}

	fmt.Println("Fault scenario — PFS data target 1 at 25% speed for [1s,200s), 16 aggregators, 16MB buffers")
	fmt.Printf("%-16s %-10s %12s %18s\n", "case", "target", "BW [GB/s]", "not_hidden_sync[s]")
	var report string
	for _, cs := range []harness.Case{harness.CacheDisabled, harness.CacheEnabled} {
		for _, faults := range []string{"", spec} {
			res := run(cs, faults)
			label := "healthy"
			if faults != "" {
				label = "degraded"
				report = res.FaultReport
			}
			fmt.Printf("%-16s %-10s %12.2f %18.2f\n", cs, label, res.BandwidthGBs,
				res.Breakdown["not_hidden_sync"].Seconds())
		}
	}
	fmt.Println()
	fmt.Print(report)
}

// benchTolerancePct is the wall-time regression the compare gate accepts.
// The simulation is deterministic, so unchanged code reproduces the
// baseline exactly; the headroom only absorbs intentional model tweaks.
const benchTolerancePct = 2

// runBenchRecord runs the regression matrix and writes the baseline file.
func runBenchRecord(seed int64, path string) {
	rep, err := harness.RunBenchReport(seed)
	if err != nil {
		fatalf("bench-record: %v", err)
	}
	b, err := harness.MarshalBench(rep)
	if err != nil {
		fatalf("bench-record: %v", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatalf("bench-record: %v", err)
	}
	fmt.Print(harness.RenderBench(rep))
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios)\n", path, len(rep.Scenarios))
}

// runBenchCompare re-runs the matrix and gates on the baseline file.
func runBenchCompare(seed int64, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("bench-compare: %v", err)
	}
	base, err := harness.ParseBench(data)
	if err != nil {
		fatalf("bench-compare: %s: %v", path, err)
	}
	if base.Seed != seed {
		seed = base.Seed // compare on the baseline's seed, not the default
	}
	cur, err := harness.RunBenchReport(seed)
	if err != nil {
		fatalf("bench-compare: %v", err)
	}
	if err := harness.CompareBenchReports(base, cur, benchTolerancePct); err != nil {
		fatalf("bench-compare vs %s: %v", path, err)
	}
	fmt.Printf("bench-compare: %d scenarios within %d%% of %s\n",
		len(base.Scenarios), benchTolerancePct, path)
}

// runScaleBenchRecord runs the kilo-rank kernel benchmark repeatedly and
// writes its baseline: the deterministic 4096-rank report digest plus
// events/sec floors for the throughput gates, set from the runs' spread.
func runScaleBenchRecord(seed int64, path string) {
	rep, err := harness.RecordScaleBench(seed)
	if err != nil {
		fatalf("scale-bench-record: %v", err)
	}
	b, err := harness.MarshalScaleBench(rep)
	if err != nil {
		fatalf("scale-bench-record: %v", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatalf("scale-bench-record: %v", err)
	}
	fmt.Printf("scale-bench: %s %d ranks: %d events in %.0f ms virtual, %.0f events/sec host (floor %.0f)\n",
		rep.Variant, rep.Ranks, rep.Events, float64(rep.WallTimeNs)/1e6,
		rep.EventsPerSec, rep.EventsPerSecFloor)
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// runScaleBenchCompare extends the -bench-compare gate to the kilo-rank
// tier: when a BENCH_SCALE_*.json baseline is committed, the newest one is
// re-run and gated on digest reproduction and the events/sec floor. With
// no baseline the pass is skipped silently.
func runScaleBenchCompare() {
	matches, err := filepath.Glob("BENCH_SCALE_*.json")
	if err != nil || len(matches) == 0 {
		return
	}
	sort.Strings(matches)
	path := matches[len(matches)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("scale-bench-compare: %v", err)
	}
	base, err := harness.ParseScaleBench(data)
	if err != nil {
		fatalf("scale-bench-compare: %s: %v", path, err)
	}
	cur, err := harness.RunScaleBench(base.Seed)
	if err != nil {
		fatalf("scale-bench-compare: %v", err)
	}
	if err := harness.CompareScaleBench(base, cur); err != nil {
		fatalf("scale-bench-compare vs %s: %v", path, err)
	}
	fmt.Printf("scale-bench-compare: %d ranks reproduce %s at %.0f events/sec (floor %.0f)\n",
		cur.Ranks, path, cur.EventsPerSec, base.EventsPerSecFloor)
}

// runScaleCritPath runs one kilo-rank scale variant with the critical-path
// analyzer attached and prints the scale report plus the full attribution
// (category shares, stragglers, path segments, message edges, what-ifs).
// The analysis is post-hoc: the run's digest is identical to an unanalyzed
// run of the same variant and scale.
func runScaleCritPath(variant string, ranks int) {
	var v harness.ScaleVariant
	switch variant {
	case "clean":
		v = harness.ScaleClean
	case "lossy":
		v = harness.ScaleLossy
	case "crash":
		v = harness.ScaleCrash
	default:
		fatalf("bad -scale-critpath %q (want clean, lossy or crash)", variant)
	}
	rep, err := harness.RunScale(harness.ScaleConfig{Variant: v, Ranks: ranks, CritPath: true})
	if err != nil {
		fatalf("scale-critpath: %v", err)
	}
	fmt.Print(rep.Text())
	fmt.Printf("digest=%s\n", rep.Digest())
	if rep.CritPathFull != nil {
		fmt.Print(rep.CritPathFull.Markdown())
	}
}

func byteLabel(n int64) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
