// Package cli is the shared command-line plumbing of the benchmark
// executables (collperf, flashio, ior): flag parsing into a harness.Spec
// and result rendering.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/critpath"
	"repro/internal/estat"
	"repro/internal/harness"
	"repro/internal/mpe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Flags holds the common benchmark options.
type Flags struct {
	Aggs       *int
	CBMB       *int
	Case       *string
	Files      *int
	Compute    *float64
	Nodes      *int
	PPN        *int
	Seed       *int64
	LastNHS    *bool
	Trace      *string
	TraceSum   *bool
	CritPath   *bool
	Timeline   *int
	Stats      *bool
	Faults     *string
	Reliable   *bool
	Resilient  *bool
	Metrics    *bool
	MetricsOut *string
}

// Register installs the common flags on fs with the paper's defaults.
func Register(fs *flag.FlagSet, includeLastSync bool) *Flags {
	return &Flags{
		Aggs:     fs.Int("aggs", 64, "number of aggregators (cb_nodes)"),
		CBMB:     fs.Int("cb", 16, "collective buffer size in MB (cb_buffer_size)"),
		Case:     fs.String("case", "enabled", "data path: disabled | enabled | theoretical | burstbuffer"),
		Files:    fs.Int("files", 4, "number of files written"),
		Compute:  fs.Float64("compute", 30, "compute delay between files in seconds"),
		Nodes:    fs.Int("nodes", 64, "compute nodes"),
		PPN:      fs.Int("ppn", 8, "ranks per node"),
		Seed:     fs.Int64("seed", 20160901, "simulation seed"),
		LastNHS:  fs.Bool("last-sync", includeLastSync, "account the last write's non-hidden sync (IOR style)"),
		Trace:    fs.String("trace", "", "write a Chrome/Perfetto trace (spans, counters, instants from every layer) to this file"),
		TraceSum: fs.Bool("trace-summary", false, "print the trace digest (top spans, counter high-water marks); implies event tracing"),
		CritPath: fs.Bool("critpath", false,
			"print the critical-path report (per-category attribution of the blocking chain bounding wall time, straggler ranking, what-if estimates); implies event tracing, never perturbs virtual time"),
		Timeline: fs.Int("timeline", 0,
			"print the run timeline sampled into this many buckets (counters, in-flight collectives/messages, tenant events); implies event tracing"),
		Stats: fs.Bool("stats", false, "print the cluster resource report after the run"),
		Faults: fs.String("faults", "", "fault schedule, e.g. "+
			"'degrade-target,target=1,factor=0.2,from=2s,to=8s;fail-device,node=0,at=5s'; "+
			"corruption kinds: 'torn-write,node=0,at=5s;bit-rot,node=1,rate=0.1,at=6s'"),
		Reliable: fs.Bool("reliable", false,
			"arm reliable message delivery (acks, retransmit, dedup) and collective timeouts; required for lossy-link/dup-link/partition faults"),
		Resilient: fs.Bool("resilient", false,
			"use the failover-capable collective write path (aggregator crash recovery); implies -reliable"),
		Metrics:    fs.Bool("metrics", false, "collect metrics during the run and print the registry text"),
		MetricsOut: fs.String("metrics-out", "", "collect metrics and write the e10stat input JSON to this file"),
	}
}

// Spec builds the experiment spec from the parsed flags.
func (f *Flags) Spec(w workloads.Workload) (harness.Spec, error) {
	var cs harness.Case
	switch *f.Case {
	case "disabled":
		cs = harness.CacheDisabled
	case "enabled":
		cs = harness.CacheEnabled
	case "theoretical":
		cs = harness.CacheTheoretical
	case "burstbuffer":
		cs = harness.BurstBuffer
	default:
		return harness.Spec{}, fmt.Errorf("unknown -case %q", *f.Case)
	}
	spec := harness.DefaultSpec(w, cs, *f.Aggs, int64(*f.CBMB)<<20)
	spec.Cluster = harness.Scaled(*f.Seed, *f.Nodes, *f.PPN)
	spec.NFiles = *f.Files
	spec.ComputeDelay = sim.FromSeconds(*f.Compute)
	spec.IncludeLastSync = *f.LastNHS
	spec.TraceEvents = *f.Trace != "" || *f.TraceSum || *f.CritPath || *f.Timeline > 0
	spec.Metrics = *f.Metrics || *f.MetricsOut != ""
	spec.FaultSpec = *f.Faults
	spec.Reliable = *f.Reliable
	spec.Resilient = *f.Resilient
	return spec, nil
}

// Report prints a Result in the style of the paper's per-cell numbers,
// then what the flags ask of the run's trace and registry: the Chrome
// trace file, the trace digest, the critical-path report, the timeline,
// the registry text, the e10stat input file and the cluster resource
// summary. Every one of them is read from the finished run, so none can
// change a reported number. A file that cannot be written exits via
// Fatalf.
func (f *Flags) Report(out io.Writer, tool string, res *harness.Result) {
	spec := res.Spec
	fmt.Fprintf(out, "%s cell=%s case=%s ranks=%d files=%d compute=%.0fs\n",
		spec.Workload.Name(), spec.Label(), spec.Case,
		spec.Cluster.Nodes*spec.Cluster.RanksPerNode, spec.NFiles, spec.ComputeDelay.Seconds())
	fmt.Fprintf(out, "  total data         : %.2f GB\n", float64(res.TotalBytes)/1e9)
	fmt.Fprintf(out, "  perceived bandwidth: %.2f GB/s (Equation 2)\n", res.BandwidthGBs)
	fmt.Fprintf(out, "  simulated wall time: %.2f s\n", res.WallTime.Seconds())
	fmt.Fprintf(out, "  peak coll buffer   : %.1f MB\n", float64(res.PeakBufBytes)/(1<<20))
	fmt.Fprintf(out, "  events dispatched  : %d\n", res.EventsDispatched)
	if res.FailoverEpochs > 0 {
		fmt.Fprintf(out, "  failover epochs    : %d\n", res.FailoverEpochs)
	}
	for k, ph := range res.Phases {
		fmt.Fprintf(out, "  phase %d: T_c=%.3fs  close_wait=%.3fs\n", k, ph.WriteTime.Seconds(), ph.CloseWait.Seconds())
	}
	fmt.Fprintf(out, "  breakdown (max over ranks, all files):\n")
	for _, ph := range mpe.BreakdownPhases {
		if d := res.Breakdown[ph]; d > 0 {
			fmt.Fprintf(out, "    %-16s %8.3f s\n", ph, d.Seconds())
		}
	}
	if res.FaultReport != "" {
		fmt.Fprint(out, res.FaultReport)
	}

	wall := int64(res.WallTime)
	if *f.Trace != "" {
		file, err := os.Create(*f.Trace)
		if err == nil {
			err = res.Trace.WriteChrome(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			Fatalf(tool, "trace: %v", err)
		}
		fmt.Fprintf(out, "trace: wrote %s (%d events on %d tracks); open with https://ui.perfetto.dev\n",
			*f.Trace, res.Trace.Len(), res.Trace.Tracks())
	}
	if *f.TraceSum {
		fmt.Fprint(out, res.Trace.Summary())
	}
	if *f.CritPath {
		fmt.Fprint(out, critpath.Analyze(res.Trace, wall).Markdown())
	}
	if *f.Timeline > 0 {
		fmt.Fprint(out, critpath.BuildTimeline(res.Trace, wall, *f.Timeline).Markdown())
	}
	if *f.Metrics {
		fmt.Fprint(out, res.Metrics.Text())
	}
	if *f.MetricsOut != "" {
		b, err := json.MarshalIndent(estat.FromResult(res), "", "  ")
		if err == nil {
			err = os.WriteFile(*f.MetricsOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			Fatalf(tool, "metrics-out: %v", err)
		}
		fmt.Fprintf(out, "metrics: wrote %s (feed it to e10stat)\n", *f.MetricsOut)
	}
	if *f.Stats {
		fmt.Fprint(out, res.Report)
	}
}

// Fatalf prints and exits.
func Fatalf(tool, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}
