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

	"repro/internal/harness"
	"repro/internal/mpe"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Flags holds the common benchmark options.
type Flags struct {
	Aggs      *int
	CBMB      *int
	Case      *string
	Files     *int
	Compute   *float64
	Nodes     *int
	PPN       *int
	Seed      *int64
	LastNHS   *bool
	Trace     *string
	TraceSum  *bool
	CritPath  *bool
	Timeline  *int
	Stats     *bool
	Faults    *string
	Reliable  *bool
	Resilient *bool
	Metrics   *MetricsFlags
}

// MetricsFlags holds the metrics options every binary shares: printing the
// registry text after a run and exporting the e10stat exchange JSON.
type MetricsFlags struct {
	Show *bool
	Out  *string
}

// RegisterMetrics installs the shared metrics flags on fs. The workload
// binaries get them through Register; e10bench installs them directly.
func RegisterMetrics(fs *flag.FlagSet) *MetricsFlags {
	return &MetricsFlags{
		Show: fs.Bool("metrics", false, "collect metrics during the run and print the registry text"),
		Out:  fs.String("metrics-out", "", "collect metrics and write the e10stat input JSON to this file"),
	}
}

// Enabled reports whether either metrics flag asks for collection.
func (m *MetricsFlags) Enabled() bool { return *m.Show || *m.Out != "" }

// Apply turns on metrics collection in spec when requested.
func (m *MetricsFlags) Apply(spec *harness.Spec) {
	if m.Enabled() {
		spec.Metrics = true
	}
}

// Report prints the registry text and/or writes the e10stat input file,
// according to the flags.
func (m *MetricsFlags) Report(out io.Writer, res *harness.Result) error {
	if *m.Show {
		fmt.Fprint(out, res.Metrics.Text())
	}
	if *m.Out != "" {
		b, err := json.MarshalIndent(res.StatInput(), "", "  ")
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		if err := os.WriteFile(*m.Out, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		fmt.Fprintf(out, "metrics: wrote %s (feed it to e10stat)\n", *m.Out)
	}
	return nil
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
		Metrics: RegisterMetrics(fs),
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
	spec.TracePath = *f.Trace
	spec.TraceEvents = *f.TraceSum
	spec.CritPath = *f.CritPath
	spec.TimelineBuckets = *f.Timeline
	spec.FaultSpec = *f.Faults
	spec.Reliable = *f.Reliable
	spec.Resilient = *f.Resilient
	f.Metrics.Apply(&spec)
	return spec, nil
}

// ReportTrace announces the written trace file and prints the trace digest
// when requested; the harness itself exports the file (Spec.TracePath).
func (f *Flags) ReportTrace(out io.Writer, res *harness.Result) {
	if *f.Trace != "" && res.Trace != nil {
		fmt.Fprintf(out, "trace: wrote %s (%d events on %d tracks); open with https://ui.perfetto.dev\n",
			*f.Trace, res.Trace.Len(), res.Trace.Tracks())
	}
	if *f.TraceSum {
		fmt.Fprint(out, res.Trace.Summary())
	}
	if res.CritPath != nil {
		fmt.Fprint(out, res.CritPath.Markdown())
	}
	if res.Timeline != nil {
		fmt.Fprint(out, res.Timeline.Markdown())
	}
}

// Report prints a Result in the style of the paper's per-cell numbers.
func Report(out io.Writer, res *harness.Result) {
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
}

// ReportMetrics prints the registry text and/or writes the e10stat input
// file per the shared metrics flags, exiting on write errors.
func (f *Flags) ReportMetrics(out io.Writer, tool string, res *harness.Result) {
	if err := f.Metrics.Report(out, res); err != nil {
		Fatalf(tool, "%v", err)
	}
}

// MaybeReport prints the cluster resource summary when -stats was given.
func (f *Flags) MaybeReport(out io.Writer, res *harness.Result) {
	if *f.Stats {
		fmt.Fprint(out, res.Report)
	}
}

// Fatalf prints and exits.
func Fatalf(tool, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, tool+": "+format+"\n", args...)
	os.Exit(1)
}
