// Command ior runs the IOR benchmark (§IV-D): every process writes one
// block per segment to a shared file. Unlike coll_perf and Flash-IO, the
// default accounting includes the last write phase's non-hidden cache
// synchronisation, which caps the achievable peak bandwidth (Figure 10).
//
//	ior -aggs 64 -cb 16 -case enabled
//	ior -segments 8 -block 8
package main

import (
	"flag"
	"os"

	"repro/internal/cli"
	"repro/internal/harness"
	"repro/internal/workloads"
)

func main() {
	fs := flag.NewFlagSet("ior", flag.ExitOnError)
	flags := cli.Register(fs, true)
	blockMB := fs.Int("block", 8, "block size per process per segment in MB")
	segments := fs.Int("segments", 8, "number of segments")
	_ = fs.Parse(os.Args[1:])

	w := workloads.IOR{BlockBytes: int64(*blockMB) << 20, Segments: *segments}
	if w.BlockBytes <= 0 || w.Segments <= 0 {
		cli.Fatalf("ior", "block and segments must be positive")
	}
	spec, err := flags.Spec(w)
	if err != nil {
		cli.Fatalf("ior", "%v", err)
	}
	res, err := harness.Run(spec)
	if err != nil {
		cli.Fatalf("ior", "%v", err)
	}
	flags.Report(os.Stdout, "ior", res)
}
