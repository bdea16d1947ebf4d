package repro

import (
	"testing"

	"repro/internal/adio"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// The benchmarks below regenerate each figure of the paper's evaluation at
// a proportionally reduced scale (16 nodes × 8 ranks, ~1 GB files) so that
// `go test -bench=.` completes in minutes; `cmd/e10bench -sweep paper`
// produces the full 512-rank, 32 GB-file grids. Every benchmark reports
// the perceived bandwidth of Equation 2 as the GB/s metric, and the
// breakdown benchmarks additionally report the stacked phase times.

// benchWorkloads holds reduced-scale versions of the three benchmarks.
func benchCollPerf() workloads.CollPerf {
	return workloads.CollPerf{RunBytes: 128 << 10, RunsY: 8, RunsZ: 8} // 8 MB/proc
}

func benchFlashIO() workloads.FlashIO {
	return workloads.FlashIO{BlocksPerProc: 10, ZonesPerBlock: 16 * 16 * 16, Vars: 24, BytesPerZone: 8}
}

func benchIOR() workloads.IOR {
	return workloads.IOR{BlockBytes: 2 << 20, Segments: 4}
}

// benchSpec builds a reduced-scale spec for one cell.
func benchSpec(w workloads.Workload, cs harness.Case, aggs int, cb int64, lastSync bool) harness.Spec {
	spec := harness.DefaultSpec(w, cs, aggs, cb)
	spec.Cluster = harness.Scaled(20160901, 16, 8)
	spec.NFiles = 2
	spec.ComputeDelay = 4 * sim.Second
	spec.IncludeLastSync = lastSync
	return spec
}

// runCell executes one cell per benchmark iteration and reports GB/s.
func runCell(b *testing.B, spec harness.Spec) *harness.Result {
	b.Helper()
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.BandwidthGBs, "GB/s")
	return last
}

// reportBreakdown attaches the stacked phase seconds as custom metrics.
func reportBreakdown(b *testing.B, res *harness.Result) {
	b.Helper()
	for ph, d := range res.Breakdown {
		if d > 0 {
			b.ReportMetric(d.Seconds(), string(ph)+"_s")
		}
	}
}

// ---- Figure 4: coll_perf perceived bandwidth, three cases ----

func BenchmarkFig4CollPerfBandwidthCacheDisabled(b *testing.B) {
	runCell(b, benchSpec(benchCollPerf(), harness.CacheDisabled, 16, 4<<20, false))
}

func BenchmarkFig4CollPerfBandwidthCacheEnabled(b *testing.B) {
	runCell(b, benchSpec(benchCollPerf(), harness.CacheEnabled, 16, 4<<20, false))
}

func BenchmarkFig4CollPerfBandwidthTheoretical(b *testing.B) {
	runCell(b, benchSpec(benchCollPerf(), harness.CacheTheoretical, 16, 4<<20, false))
}

func BenchmarkFig4CollPerfFewAggregators(b *testing.B) {
	// The cell where the paper shows the cache failing to hide the sync.
	spec := benchSpec(benchCollPerf(), harness.CacheEnabled, 2, 4<<20, false)
	spec.ComputeDelay = sim.Second
	res := runCell(b, spec)
	b.ReportMetric(res.Breakdown["not_hidden_sync"].Seconds(), "not_hidden_sync_s")
}

// ---- Figure 5/6: coll_perf breakdowns ----

func BenchmarkFig5CollPerfBreakdownCacheEnabled(b *testing.B) {
	res := runCell(b, benchSpec(benchCollPerf(), harness.CacheEnabled, 16, 4<<20, false))
	reportBreakdown(b, res)
}

func BenchmarkFig6CollPerfBreakdownCacheDisabled(b *testing.B) {
	res := runCell(b, benchSpec(benchCollPerf(), harness.CacheDisabled, 16, 4<<20, false))
	reportBreakdown(b, res)
}

// ---- Figure 7/8: Flash-IO ----

func BenchmarkFig7FlashIOBandwidthCacheDisabled(b *testing.B) {
	runCell(b, benchSpec(benchFlashIO(), harness.CacheDisabled, 16, 4<<20, false))
}

func BenchmarkFig7FlashIOBandwidthCacheEnabled(b *testing.B) {
	runCell(b, benchSpec(benchFlashIO(), harness.CacheEnabled, 16, 4<<20, false))
}

func BenchmarkFig7FlashIOBandwidthTheoretical(b *testing.B) {
	runCell(b, benchSpec(benchFlashIO(), harness.CacheTheoretical, 16, 4<<20, false))
}

func BenchmarkFig8FlashIOBreakdownCacheEnabled(b *testing.B) {
	res := runCell(b, benchSpec(benchFlashIO(), harness.CacheEnabled, 16, 4<<20, false))
	reportBreakdown(b, res)
}

// ---- Figure 9/10: IOR (last write's sync included) ----

func BenchmarkFig9IORBandwidthCacheDisabled(b *testing.B) {
	runCell(b, benchSpec(benchIOR(), harness.CacheDisabled, 16, 4<<20, true))
}

func BenchmarkFig9IORBandwidthCacheEnabled(b *testing.B) {
	runCell(b, benchSpec(benchIOR(), harness.CacheEnabled, 16, 4<<20, true))
}

func BenchmarkFig9IORBandwidthTheoretical(b *testing.B) {
	runCell(b, benchSpec(benchIOR(), harness.CacheTheoretical, 16, 4<<20, true))
}

func BenchmarkFig10IORBreakdownCacheEnabled(b *testing.B) {
	res := runCell(b, benchSpec(benchIOR(), harness.CacheEnabled, 16, 4<<20, true))
	reportBreakdown(b, res)
}

// ---- Ablations on the design choices called out in DESIGN.md ----

// BenchmarkAblationSyncBuffer sweeps ind_wr_buffer_size: small sync
// buffers pay per-chunk overheads in the serialized read→write pipeline.
func BenchmarkAblationSyncBuffer(b *testing.B) {
	for _, buf := range []int64{128 << 10, 512 << 10, 2 << 20} {
		buf := buf
		b.Run(byteLabel(buf), func(b *testing.B) {
			spec := benchSpec(benchCollPerf(), harness.CacheEnabled, 2, 4<<20, true)
			spec.ComputeDelay = sim.Second
			spec.SyncBuffer = buf
			runCell(b, spec)
		})
	}
}

// BenchmarkAblationFlushPolicy compares flush_immediate (overlap with
// compute) against flush_onclose (all sync exposed at close).
func BenchmarkAblationFlushPolicy(b *testing.B) {
	for _, flag := range []string{"flush_immediate", "flush_onclose"} {
		flag := flag
		b.Run(flag, func(b *testing.B) {
			spec := benchSpec(benchCollPerf(), harness.CacheEnabled, 8, 4<<20, true)
			spec.FlushFlag = flag
			runCell(b, spec)
		})
	}
}

// BenchmarkAblationAggregatorCount is the paper's central knob.
func BenchmarkAblationAggregatorCount(b *testing.B) {
	for _, aggs := range []int{2, 4, 8, 16, 32} {
		aggs := aggs
		b.Run(intLabel(aggs), func(b *testing.B) {
			spec := benchSpec(benchCollPerf(), harness.CacheEnabled, aggs, 4<<20, false)
			spec.ComputeDelay = 2 * sim.Second
			runCell(b, spec)
		})
	}
}

// BenchmarkAblationCollBufferSize varies cb_buffer_size; with the cache the
// paper observes that large buffers stop mattering (memory pressure win).
func BenchmarkAblationCollBufferSize(b *testing.B) {
	for _, cb := range []int64{1 << 20, 4 << 20, 16 << 20} {
		cb := cb
		for _, cs := range []harness.Case{harness.CacheDisabled, harness.CacheEnabled} {
			cs := cs
			b.Run(string(cs)+"/"+byteLabel(cb), func(b *testing.B) {
				res := runCell(b, benchSpec(benchCollPerf(), cs, 16, cb, false))
				b.ReportMetric(float64(res.PeakBufBytes)/(1<<20), "peak_buf_MB")
			})
		}
	}
}

// BenchmarkAblationAggregatorPlacement compares the default one-per-node
// aggregator spread against cb_config_list packing, which makes
// aggregators share NICs and SSDs.
func BenchmarkAblationAggregatorPlacement(b *testing.B) {
	for _, placement := range []struct{ name, cfg string }{
		{"spread", ""},
		{"packed", "*:8"},
	} {
		placement := placement
		b.Run(placement.name, func(b *testing.B) {
			spec := benchSpec(benchCollPerf(), harness.CacheEnabled, 8, 4<<20, false)
			if placement.cfg != "" {
				spec.ExtraHints = map[string]string{adio.HintCBConfigList: placement.cfg}
			}
			runCell(b, spec)
		})
	}
}

// BenchmarkComparisonBurstBuffer pits the paper's node-local cache against
// the §V comparator: a fixed tier of dedicated NVMe burst-buffer proxies.
// Node-local cache bandwidth scales with compute nodes; the burst buffer
// is capped by its proxy count — the paper's scalability argument.
func BenchmarkComparisonBurstBuffer(b *testing.B) {
	cases := []struct {
		name string
		cs   harness.Case
	}{
		{"node-local-cache", harness.CacheEnabled},
		{"burst-buffer-2proxies", harness.BurstBuffer},
		{"pfs-direct", harness.CacheDisabled},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			runCell(b, benchSpec(benchCollPerf(), c.cs, 16, 4<<20, false))
		})
	}
}

// ---- Observability ----

// BenchmarkTracingOverhead runs the same cell with the event tracer off and
// on. The delta is the real (host-CPU) cost of recording ~10^5 events; the
// simulated numbers are identical either way (see harness.TestTracingDoesNotPerturb).
func BenchmarkTracingOverhead(b *testing.B) {
	for _, traced := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		traced := traced
		b.Run(traced.name, func(b *testing.B) {
			spec := benchSpec(benchCollPerf(), harness.CacheEnabled, 16, 4<<20, false)
			spec.TraceEvents = traced.on
			res := runCell(b, spec)
			if traced.on {
				b.ReportMetric(float64(res.Trace.Len()), "events")
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkTwoPhaseExchange measures the raw ext2ph machinery (simulator
// throughput, not simulated bandwidth): events processed per second for a
// 128-rank collective write.
func BenchmarkTwoPhaseExchange(b *testing.B) {
	runCell(b, benchSpec(benchCollPerf(), harness.CacheDisabled, 8, 4<<20, false))
}

// BenchmarkCollectives measures the message-passing collective algorithms.
func BenchmarkCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cl := harness.NewCluster(harness.Scaled(1, 8, 4))
		c := cl.World.Comm()
		c.SetCollModel(mpi.MessagePassing)
		err := cl.World.Run(func(r *mpi.Rank) {
			for it := 0; it < 10; it++ {
				c.Allreduce(r, []int64{int64(r.ID())}, mpi.MaxOp)
				c.Alltoall(r, nil)
				c.Barrier(r)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table I / II: hint parsing (definitional tables) ----

func BenchmarkTableIHintParsing(b *testing.B) {
	info := mpi.Info{
		adio.HintCBWrite: "enable", adio.HintCBNodes: "64",
		adio.HintCBBufferSize: "16777216", adio.HintStripingUnit: "4194304",
	}
	for i := 0; i < b.N; i++ {
		if _, err := adio.ParseHints(info, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return intLabel(int(n>>20)) + "MB"
	default:
		return intLabel(int(n>>10)) + "KB"
	}
}

func intLabel(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
