// Command collperf runs the coll_perf benchmark (§IV-B): 3D
// block-distributed array writes to a shared file, extended — as the paper
// did — with multi-file output and compute-delay emulation.
//
//	collperf -aggs 64 -cb 16 -case enabled
//	collperf -case disabled -nodes 16 -ppn 8
package main

import (
	"flag"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	fs := flag.NewFlagSet("collperf", flag.ExitOnError)
	flags := cli.Register(fs, false)
	blockMB := fs.Int("block", 64, "data per process per file in MB")
	_ = fs.Parse(os.Args[1:])

	w := workloads.DefaultCollPerf()
	// Scale the per-process block while preserving the run structure.
	w.RunBytes = int64(*blockMB) << 20 / int64(w.RunsY*w.RunsZ)
	if w.RunBytes <= 0 {
		cli.Fatalf("collperf", "block too small: %d MB", *blockMB)
	}
	spec, err := flags.Spec(w)
	if err != nil {
		cli.Fatalf("collperf", "%v", err)
	}
	res, err := harness.Run(spec)
	if err != nil {
		cli.Fatalf("collperf", "%v", err)
	}
	flags.Report(os.Stdout, "collperf", res)
}
