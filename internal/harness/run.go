package harness

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/adio"
	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Case selects one of the evaluation's three data paths.
type Case string

// The three cases of Figures 4, 7 and 9.
const (
	// CacheDisabled writes directly to the global file system
	// ("BW Cache Disabled").
	CacheDisabled Case = "disabled"
	// CacheEnabled writes to the local SSD cache and flushes it to the
	// global file system asynchronously ("BW Cache Enabled").
	CacheEnabled Case = "enabled"
	// CacheTheoretical writes to the cache without flushing — the
	// theoretical bandwidth with synchronisation cost fully hidden
	// ("TBW Cache Enable").
	CacheTheoretical Case = "theoretical"
	// BurstBuffer stages writes in a small tier of dedicated NVMe proxies
	// (the §V comparator architecture) instead of node-local SSDs. Not
	// part of the paper's evaluation; used by the comparison benches.
	BurstBuffer Case = "burstbuffer"
)

// Spec describes one experiment cell.
type Spec struct {
	Workload     workloads.Workload
	Cluster      ClusterConfig
	Case         Case
	Aggregators  int      // cb_nodes
	CBBuffer     int64    // cb_buffer_size in bytes
	NFiles       int      // files written per run (paper: 4 × 32 GB)
	ComputeDelay sim.Time // emulated compute phase (paper: 30 s)
	// IncludeLastSync adds the last write phase's non-hidden
	// synchronisation to the total time, as the IOR experiment does
	// (§IV-D); coll_perf and Flash-IO exclude it (§IV-B).
	IncludeLastSync bool
	StripeSize      int64  // file stripe size (paper: 4 MB)
	StripeCount     int    // file stripe count (paper: 4)
	SyncBuffer      int64  // ind_wr_buffer_size (paper: 512 KB)
	FlushFlag       string // e10_cache_flush_flag (default flush_immediate)
	// TraceEvents enables the event tracer (internal/trace): spans, instants
	// and counters across every simulated layer, exposed as Result.Trace.
	// Tracing records events only — it never perturbs virtual time, so every
	// measured number is identical with it on or off.
	TraceEvents bool
	// TracePath additionally writes the recorded events as Chrome
	// trace-event JSON (Perfetto-loadable) to this file after the run.
	// Setting it implies TraceEvents.
	TracePath string
	// CritPath runs the critical-path analyzer (internal/critpath) on the
	// recorded trace after the run, exposing Result.CritPath. It implies
	// TraceEvents; the analysis is post-hoc, so enabling it never perturbs
	// virtual time or the recorded trace.
	CritPath bool
	// TimelineBuckets, when > 0, builds the interval-sampled run timeline
	// (internal/critpath.BuildTimeline) with that many buckets, exposing
	// Result.Timeline. It implies TraceEvents and is likewise post-hoc.
	TimelineBuckets int
	// Metrics enables the metrics registry (internal/metrics): label-aware
	// counters, gauges and latency histograms across every simulated layer,
	// exposed as Result.Metrics. Like tracing, metrics record values only —
	// they never perturb virtual time, so every measured number is identical
	// with them on or off.
	Metrics bool
	// ExtraHints are merged into the MPI_Info last (e.g. cb_config_list
	// for placement experiments, e10_cache_read, ...).
	ExtraHints map[string]string
	// FaultSpec, when non-empty, is a fault.Parse schedule armed on the
	// cluster before the run (e.g. "degrade-target,target=1,factor=0.2,
	// from=2s,to=8s"). Fault injection is deterministic: the same spec and
	// seed reproduce the same run byte for byte.
	FaultSpec string
	// Reliable arms the reliable point-to-point delivery layer (acks,
	// timeout retransmit, receiver dedup) plus a collective timeout, so
	// the run tolerates lossy/duplicating links and a partitioned
	// collective surfaces a typed error instead of wedging. Without
	// faults, arming it leaves every measured virtual time unchanged.
	Reliable bool
	// CollTimeout overrides the collective timeout armed by Reliable
	// (zero keeps DefaultCollTimeout).
	CollTimeout sim.Time
	// Resilient selects the failover-capable collective write path
	// (e10_resilient_write): aggregator crash detection, deterministic
	// file-domain recompute over survivors, unacked-round replay. It
	// implies Reliable: the failover protocol needs collective timeouts.
	Resilient bool
	// PreRun, when non-nil, runs against the freshly assembled cluster
	// after the reliability layer is armed but before faults are scheduled
	// and ranks start. It is the hook scale runs and tests use to wire
	// Cluster.OnCrash, arm per-node loss probabilities, or schedule
	// virtual-time callbacks. Everything it does must be deterministic.
	PreRun func(cl *Cluster) error
	// blockProbe is attached to the kernel with SetBlockProbe; the stack
	// gate's tests set it, and every other run leaves it nil.
	blockProbe func()
}

// DefaultCollTimeout is the collective timeout Run arms when
// Spec.Reliable or Spec.Resilient is set and Spec.CollTimeout is zero. It
// bounds how long a collective waits for a crashed or partitioned peer
// before returning a typed timeout error.
const DefaultCollTimeout = 200 * sim.Millisecond

// DefaultSpec returns the paper's experiment parameters for a workload and
// cell, on the full DEEP-ER profile.
func DefaultSpec(w workloads.Workload, c Case, aggs int, cbBytes int64) Spec {
	return Spec{
		Workload:     w,
		Cluster:      DeepER(20160901),
		Case:         c,
		Aggregators:  aggs,
		CBBuffer:     cbBytes,
		NFiles:       4,
		ComputeDelay: 30 * sim.Second,
		StripeSize:   4 << 20,
		StripeCount:  4,
		SyncBuffer:   512 << 10,
	}
}

// PhaseMetrics captures one file's timings (the terms of Equation 1).
type PhaseMetrics struct {
	WriteTime sim.Time // T_c(k): collective write to cache or global FS
	CloseWait sim.Time // max(0, T_s(k) - C(k+1)): non-hidden sync at close
}

// Result is one experiment cell's outcome.
type Result struct {
	Spec       Spec
	TotalBytes int64
	Phases     []PhaseMetrics
	// BandwidthGBs is the perceived bandwidth of Equation 2 in GB/s.
	BandwidthGBs float64
	// Breakdown holds the max-over-ranks per-phase times summed over all
	// write phases (the stacked bars of Figures 5, 6, 8, 10).
	Breakdown map[mpe.Phase]sim.Time
	// WallTime is the total simulated run time.
	WallTime sim.Time
	// EventsDispatched is the number of kernel events the run consumed —
	// the numerator of the simulated-events-per-second throughput metric.
	EventsDispatched int64
	// PeakBufBytes is the largest collective buffer allocated on any rank
	// (memory pressure, the paper's point (d)).
	PeakBufBytes int64
	// FailoverEpochs is the largest number of resilient-write membership
	// epochs beyond the first observed on any rank (zero unless an
	// aggregator crashed mid-write on the resilient path).
	FailoverEpochs int64
	// Trace is the event tracer with all recorded events, non-nil only when
	// tracing was on (Trace.Summary renders its digest).
	Trace *trace.Tracer
	// CritPath is the critical-path analysis of the recorded trace, non-nil
	// only when Spec.CritPath was set.
	CritPath *critpath.Report
	// Timeline is the interval-sampled run timeline, non-nil only when
	// Spec.TimelineBuckets > 0.
	Timeline *critpath.Timeline
	// Metrics is the populated registry, non-nil only when Spec.Metrics was
	// set (Metrics.Text renders its digest).
	Metrics *metrics.Registry
	// Report is the post-run cluster resource summary (ClusterReport).
	Report string
	// FaultReport is the armed fault schedule's lifecycle rendering, empty
	// when no faults were injected.
	FaultReport string
}

// Label renders the cell name the paper uses on its x axes,
// "<aggregators>_<coll_bufsize>".
func (s Spec) Label() string {
	return fmt.Sprintf("%d_%dmb", s.Aggregators, s.CBBuffer>>20)
}

// hints builds the MPI_Info for the run.
func (s Spec) hints() mpi.Info {
	info := mpi.Info{
		adio.HintCBWrite:         adio.HintEnable,
		adio.HintCBNodes:         strconv.Itoa(s.Aggregators),
		adio.HintCBBufferSize:    strconv.FormatInt(s.CBBuffer, 10),
		adio.HintStripingUnit:    strconv.FormatInt(s.StripeSize, 10),
		adio.HintStripingFactor:  strconv.Itoa(s.StripeCount),
		adio.HintIndWrBufferSize: strconv.FormatInt(s.SyncBuffer, 10),
	}
	switch s.Case {
	case CacheDisabled, BurstBuffer:
		info[core.HintCache] = core.CacheDisable
	case CacheEnabled, CacheTheoretical:
		info[core.HintCache] = core.CacheEnable
		flush := s.FlushFlag
		if flush == "" {
			// Figure 3's workflow: synchronisation starts right after the
			// write so it can hide behind the next compute phase.
			flush = core.FlushImmediate
		}
		info[core.HintFlushFlag] = flush
		info[core.HintDiscardFlag] = "enable"
		info[core.HintCachePath] = "/scratch"
	}
	if s.Resilient {
		info[adio.HintResilientWrite] = adio.HintEnable
	}
	for k, v := range s.ExtraHints {
		info[k] = v
	}
	return info
}

// Run executes one experiment cell on a freshly built cluster and computes
// the perceived bandwidth per Equation 2.
func Run(spec Spec) (*Result, error) {
	res, _, err := run(spec)
	return res, err
}

// run is Run that also returns the cluster, for post-run oracles.
func run(spec Spec) (*Result, *Cluster, error) {
	if spec.Case == BurstBuffer && spec.Cluster.BurstBuffer == nil {
		bb := burst.DefaultConfig()
		spec.Cluster.BurstBuffer = &bb
	}
	cl := NewCluster(spec.Cluster)
	tr, reg, logs := observe(cl,
		spec.TraceEvents || spec.TracePath != "" || spec.CritPath || spec.TimelineBuckets > 0, spec.Metrics)
	switch {
	case spec.Case == CacheTheoretical:
		cl.CoreEnv.SkipSync = true
	case spec.Case == BurstBuffer:
		cl.Env.Hooks = cl.BB.HooksFactory()
	}
	if spec.Reliable || spec.Resilient {
		cl.World.EnableReliable()
		ct := spec.CollTimeout
		if ct == 0 {
			ct = DefaultCollTimeout
		}
		cl.World.SetCollTimeout(ct)
	}
	cl.Kernel.SetBlockProbe(spec.blockProbe)
	if spec.PreRun != nil {
		if err := spec.PreRun(cl); err != nil {
			return nil, nil, err
		}
	}
	var injector *fault.Injector
	if spec.FaultSpec != "" {
		sched, err := fault.Parse(spec.FaultSpec)
		if err != nil {
			return nil, nil, err
		}
		injector, err = cl.ArmFaults(sched)
		if err != nil {
			return nil, nil, err
		}
	}
	nranks := cl.World.Size()
	res := &Result{
		Spec:       spec,
		TotalBytes: spec.Workload.FileBytes(nranks) * int64(spec.NFiles),
		Phases:     make([]PhaseMetrics, spec.NFiles),
		Breakdown:  make(map[mpe.Phase]sim.Time),
	}
	fig := &figure3{cl: cl, spec: &spec, res: res, world: cl.World.Comm(), info: spec.hints(),
		logs: logs, errs: make([]error, nranks)}
	err := cl.World.Run(fig.rank)
	if err != nil {
		return nil, nil, err
	}
	// Report the lowest-ranked failing rank's first error.
	for _, e := range fig.errs {
		if e != nil {
			return nil, nil, e
		}
	}
	res.WallTime = cl.Kernel.Now()
	res.EventsDispatched = cl.Kernel.EventsDispatched()
	res.BandwidthGBs = bandwidth(res.Phases, res.TotalBytes, spec.IncludeLastSync)
	res.Report = ClusterReport(cl)
	if injector != nil {
		res.FaultReport = injector.Report()
	}
	if tr != nil {
		res.Trace = tr
		if spec.TracePath != "" {
			if werr := writeTraceFile(tr, spec.TracePath); werr != nil {
				return nil, nil, werr
			}
		}
	}
	if reg != nil {
		res.Metrics = reg
	}
	// Post-hoc analyses: both only read the already-recorded trace, so the
	// trace bytes and every measured virtual time are identical with or
	// without them.
	if spec.CritPath {
		res.CritPath = critpath.Analyze(tr, int64(res.WallTime))
	}
	if spec.TimelineBuckets > 0 {
		res.Timeline = critpath.BuildTimeline(tr, int64(res.WallTime), spec.TimelineBuckets)
	}
	for _, ph := range mpe.BreakdownPhases {
		res.Breakdown[ph] = mpe.Aggregate(logs, ph).Max
	}
	return res, cl, nil
}

// figure3 is the rank program of a run, which every rank runs on the
// world communicator: Figure 3's loop of barrier, open, write phase,
// barrier and compute, with each close deferred to the start of the next
// I/O phase. Phases gets each file's write time and its largest close
// wait over the ranks. The program's state lives here, on the heap, so a
// rank's own frames stay small: every rank parks under them.
type figure3 struct {
	cl    *Cluster
	spec  *Spec
	res   *Result
	world *mpi.Comm
	info  mpi.Info
	logs  []*mpe.Log // per world rank
	errs  []error    // each world rank's first error
}

// rank runs the program on r.
func (g *figure3) rank(r *mpi.Rank) {
	var prev *mpiio.File
	for k := 0; k < g.spec.NFiles; k++ {
		g.closeFile(r, prev, k-1)
		prev = nil
		g.world.Barrier(r)
		t0 := r.Now()
		f, err := g.open(r, k)
		if err != nil {
			g.fail(r, err)
			break
		}
		g.fail(r, g.spec.Workload.WritePhase(r, f, g.cl.Cfg.Payload))
		g.world.Barrier(r)
		if r.ID() == 0 {
			g.res.Phases[k].WriteTime = r.Now() - t0
		}
		prev = f
		// With IncludeLastSync the last write has no compute phase
		// after it: C(N) = 0 (IOR, §IV-D).
		if k < g.spec.NFiles-1 || !g.spec.IncludeLastSync {
			r.Compute(g.spec.ComputeDelay)
		}
	}
	g.closeFile(r, prev, g.spec.NFiles-1)
}

// open opens file k of the run on r.
func (g *figure3) open(r *mpi.Rank, k int) (*mpiio.File, error) {
	return g.cl.Env.OpenWithLog(r, g.world, fmt.Sprintf("%s.%04d", g.spec.Workload.Name(), k),
		mpiio.ModeCreate|mpiio.ModeWrOnly, g.info, g.logs[r.ID()])
}

// closeFile closes f, file k of the run, after a barrier (nothing when f
// is nil), and records its close wait and the file's statistics.
func (g *figure3) closeFile(r *mpi.Rank, f *mpiio.File, k int) {
	if f == nil {
		return
	}
	g.world.Barrier(r)
	t0 := r.Now()
	g.fail(r, f.Close())
	res := g.res
	res.Phases[k].CloseWait = max(res.Phases[k].CloseWait, r.Now()-t0)
	st := &f.Handle().Stats
	res.PeakBufBytes = max(res.PeakBufBytes, st.PeakBufBytes)
	res.FailoverEpochs = max(res.FailoverEpochs, st.FailoverEpochs)
}

// fail keeps err as r's error unless r already has one.
func (g *figure3) fail(r *mpi.Rank, err error) {
	if err != nil && g.errs[r.ID()] == nil {
		g.errs[r.ID()] = err
	}
}

// observe arms the event tracer and the metrics registry as asked and
// returns one MPE log per world rank, bound to both.
func observe(cl *Cluster, traced, metered bool) (*trace.Tracer, *metrics.Registry, []*mpe.Log) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
		cl.Kernel.SetTracer(tr)
	}
	var reg *metrics.Registry
	if metered {
		reg = metrics.New()
		cl.Kernel.SetMetrics(reg)
	}
	logs := make([]*mpe.Log, cl.World.Size())
	for i := range logs {
		logs[i] = mpe.NewLog()
		if tr != nil {
			// Registers the rank tracks 0..n-1 up front, in ascending order.
			logs[i].BindTracer(tr, cl.World.Rank(i).TraceTrack(tr))
		}
		if reg != nil {
			logs[i].BindMetrics(reg, i)
		}
	}
	return tr, reg, logs
}

// bandwidth is Equation 2: total bytes over the summed write times and
// non-hidden close waits. It zeroes, in times, the waits Eq. 2 does not
// count: those under the 10 ms noise floor, and the last file's unless
// lastSync.
func bandwidth(times []PhaseMetrics, total int64, lastSync bool) float64 {
	var denom sim.Time
	for k := range times {
		// Close always pays a couple of metadata round trips; only count
		// waits beyond that noise floor as non-hidden synchronisation.
		if times[k].CloseWait < 10*sim.Millisecond || (k == len(times)-1 && !lastSync) {
			times[k].CloseWait = 0
		}
		denom += times[k].WriteTime + times[k].CloseWait
	}
	if denom <= 0 {
		return 0
	}
	return float64(total) / denom.Seconds() / 1e9
}

// writeTraceFile exports the tracer as Chrome trace-event JSON at path.
func writeTraceFile(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: trace export: %w", err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("harness: trace export: %w", err)
	}
	return f.Close()
}
