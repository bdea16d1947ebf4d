// Command e10stat analyses experiment results into paper-figure-style
// reports: the per-phase cost breakdown (Figures 5/6/8/10), the cache
// speedup comparison (Figures 4/7/9) and the flush-overlap accounting of
// Equation 1. It reads five artifact shapes: the e10stat input written by
// the workload binaries' -metrics-out flag (and by
// `e10chaos -replay ... -metrics-out`, whose recovery/scrub counters feed
// the crash-recovery section), Chrome traces from -trace, bench baselines
// (BENCH_<date>.json), kilo-rank scale baselines (BENCH_SCALE_<date>.json)
// and scale digest goldens (internal/harness/testdata/scale_digest_*.json).
// Any other file is an error. Results from multiple files can be combined
// in one report.
//
//	collperf -case disabled -metrics-out dis.json
//	collperf -case enabled  -metrics-out en.json
//	e10stat dis.json en.json
//	e10stat -format csv -out report.csv en.json
//	e10stat BENCH_SCALE_2026-08-08.json    # summarize a scale baseline
//	e10stat -lint trace.json               # label/name cardinality lint
//	e10stat -run                           # built-in small demo pair
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/estat"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func main() {
	fs := flag.NewFlagSet("e10stat", flag.ExitOnError)
	format := fs.String("format", "md", "report format: md | csv | json")
	out := fs.String("out", "", "write the report to this file instead of stdout")
	demo := fs.Bool("run", false, "run a small built-in disabled/enabled coll_perf pair and report on it")
	lint := fs.Bool("lint", false, "lint inputs for unbounded metric-label / trace-name cardinality instead of reporting (exit 1 on problems)")
	lintMax := fs.Int("lint-max", estat.DefaultLintMax, "distinct-value budget per label key / trace category for -lint")
	_ = fs.Parse(os.Args[1:])

	if *lint {
		runLint(fs.Args(), *demo, *lintMax)
		return
	}

	var arts []*estat.Artifact
	if *demo {
		arts = append(arts, &estat.Artifact{Kind: estat.KindStat, Inputs: runDemo()})
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			cli.Fatalf("e10stat", "%v", err)
		}
		art, err := estat.ParseAny(data)
		if err != nil {
			cli.Fatalf("e10stat", "%s: %v", path, err)
		}
		arts = append(arts, art)
	}
	if len(arts) == 0 {
		cli.Fatalf("e10stat", "no inputs: pass -metrics-out files, -trace files, BENCH_*.json or BENCH_SCALE_*.json baselines or scale digest goldens, or use -run")
	}

	text, err := estat.RenderAny(arts, *format)
	if err != nil {
		cli.Fatalf("e10stat", "%v", err)
	}
	if *out == "" {
		fmt.Print(text)
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		cli.Fatalf("e10stat", "%v", err)
	}
	fmt.Fprintf(os.Stderr, "e10stat: wrote %s\n", *out)
}

// runLint runs the cardinality lint over every given file (and the demo
// pair's metrics with -run), printing problems and exiting non-zero when
// any are found.
func runLint(paths []string, demo bool, max int) {
	if !demo && len(paths) == 0 {
		cli.Fatalf("e10stat", "-lint needs input files (or -run for the demo pair)")
	}
	failed := false
	report := func(name string, problems []string) {
		for _, p := range problems {
			failed = true
			fmt.Fprintf(os.Stderr, "e10stat: lint: %s: %s\n", name, p)
		}
	}
	if demo {
		report("demo", estat.LintInputs(runDemo(), max))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			cli.Fatalf("e10stat", "%v", err)
		}
		report(path, estat.LintData(data, max))
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("e10stat: lint clean")
}

// runDemo produces a small deterministic disabled/enabled pair so the
// report machinery can be exercised without prior runs.
func runDemo() []estat.Input {
	w := workloads.DefaultCollPerf()
	w.RunBytes = 256 << 10
	var ins []estat.Input
	for _, cs := range []harness.Case{harness.CacheDisabled, harness.CacheEnabled} {
		spec := harness.DefaultSpec(w, cs, 4, 4<<20)
		spec.Cluster = harness.Scaled(42, 2, 2)
		spec.NFiles = 2
		spec.ComputeDelay = sim.Second / 2
		spec.Metrics = true
		res, err := harness.Run(spec)
		if err != nil {
			cli.Fatalf("e10stat", "demo %s: %v", cs, err)
		}
		ins = append(ins, estat.FromResult(res))
	}
	return ins
}
