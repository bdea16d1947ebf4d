package main

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json lists the end-to-end and per-layer metrics with the
// same names and units (a test checks it); it adds the end-to-end
// regression bounds.
type metricDef struct {
	name, unit, better string
}

const mib = float64(1 << 20)

// endToEnd are the metrics a user of the simulator sees, reported on every
// workload and never zero. host_s and setup_s are host wall time, the rest
// of the virt_* family simulated (virtual) time, deterministic per seed.
var endToEnd = []metricDef{
	{"host_s", "s", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"virt_wall_s", "sim_s", "lower"},
	{"virt_bw_gbs", "GB/s", "higher"},
}

// reportOnly are end-to-end numbers printed and written to the results file
// but not gated by BENCHMARK.json: failed_frac is 0 on a good run (the
// one-line JSON result carries attempted and failed instead), and the other
// two exist only on paper_512.
var reportOnly = []metricDef{
	{"failed_frac", "ratio", "lower"},
	{"virt_speedup", "x", "higher"},
	{"not_hidden_sync_s", "sim_s", "lower"},
}

// entryCounters are per-layer counts that every workload's entry point
// returns: harness.RunScale in its report, harness.Run and readback_64
// through the cluster they ran on. A rep records them in repResult.extra,
// summed over its runs (failover epochs: the most any run went through).
var entryCounters = []string{"mpi.retransmits", "mpi.dedup_drops", "netsim.msgs_dropped", "adio.failover_epochs"}

// perLayer lists the per-layer metrics every workload reports, in report
// order; BENCHMARK.json's per_layer lists the same. The cpu.* shares and
// runtime.* come from the profiled reps, critpath.* shares and the counts
// from the traced rep, harness.new_cluster_s from the set-up batches.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range allLayers() {
		defs = append(defs, metricDef{"cpu." + l, "ratio", "lower"})
	}
	for _, c := range critCategories() {
		better := "lower"
		if c == "compute" {
			better = "higher" // the rest of the path is I/O overhead
		}
		defs = append(defs, metricDef{"critpath." + c, "ratio", better})
	}
	defs = append(defs, metricDef{"sim.events", "count", "lower"})
	for _, c := range entryCounters {
		defs = append(defs, metricDef{c, "count", "lower"})
	}
	return append(defs,
		metricDef{"sim.events_per_s", "1/s", "higher"},
		metricDef{"runtime.allocs", "count", "lower"},
		metricDef{"runtime.allocs_per_event", "count", "lower"},
		metricDef{"runtime.alloc_mb", "MiB", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_s", "s", "lower"},
		metricDef{"harness.new_cluster_s", "s", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
	)
}

// counterMetrics map detail metrics to the registry counters of the traced
// rep, summed over label sets and cells; byte counters are reported in MiB.
var counterMetrics = []struct {
	name, series, unit string
}{
	{"sim.wakes", "sim_wakes_total", "count"},
	{"sim.procs_spawned", "sim_procs_spawned_total", "count"},
	{"mpi.colls", "mpi_colls_total", "count"},
	{"netsim.tx_mb", "net_tx_bytes_total", "MiB"},
	{"adio.coll_rounds", "adio_coll_rounds_total", "count"},
	{"adio.exchange_mb", "adio_exchange_bytes_total", "MiB"},
	{"core.synced_mb", "cache_synced_bytes_total", "MiB"},
	{"core.sync_reqs", "cache_sync_reqs_total", "count"},
	{"nvm.write_mb", "nvm_write_bytes_total", "MiB"},
	{"nvm.read_mb", "nvm_read_bytes_total", "MiB"},
	{"pfs.target_mb", "pfs_target_bytes_total", "MiB"},
	{"pfs.meta_ops", "pfs_meta_ops_total", "count"},
}

// histMetrics map detail metrics to a percentile of a registry histogram of
// virtual nanoseconds, in milliseconds: the largest value over the
// histogram's label sets and the rep's cells.
var histMetrics = []struct {
	name, series string
	pct          int // 50 or 99
}{
	{"mpi.coll_ms_p99", "mpi_coll_ns", 99},
	{"adio.round_ms_p50", "adio_round_ns", 50},
	{"adio.round_ms_p99", "adio_round_ns", 99},
	{"core.sync_chunk_ms_p99", "cache_sync_chunk_ns", 99},
	{"nvm.op_ms_p99", "nvm_op_ns", 99},
	{"pfs.target_ms_p99", "pfs_target_ns", 99},
}

// detailLayer lists the per-layer metrics that only some workloads'
// entry points expose. Most are read from the trace, metrics registry and
// phase breakdown of the traced rep, which harness.Run returns and
// readback_64 records on its own kernel but harness.RunScale does not; the
// mpiio.* times and cache reads are readback_64's own calls. A workload
// without them reports them as absent, not as zero, so they are printed and
// written to the results file but are not in BENCHMARK.json.
func detailLayer() []metricDef {
	var defs []metricDef
	for _, c := range counterMetrics {
		defs = append(defs, metricDef{c.name, c.unit, "lower"})
	}
	for _, h := range histMetrics {
		defs = append(defs, metricDef{h.name, "sim_ms", "lower"})
	}
	for _, p := range phaseMetrics {
		defs = append(defs, metricDef{p.name, "sim_s", "lower"})
	}
	for _, op := range mpiioOps {
		defs = append(defs, metricDef{"mpiio." + op + "_ms", "sim_ms", "lower"})
	}
	return append(defs,
		metricDef{"core.cache_reads", "count", "higher"},
		metricDef{"trace.events", "count", "lower"},
		metricDef{"trace.chrome_s", "s", "lower"},
		metricDef{"trace.summary_s", "s", "lower"},
		metricDef{"critpath.analyze_s", "s", "lower"},
		metricDef{"critpath.timeline_s", "s", "lower"},
		metricDef{"metrics.text_s", "s", "lower"},
	)
}
