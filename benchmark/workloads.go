package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// cell is one simulated run inside a rep.
type cell struct {
	name      string
	wallNs    int64
	events    int64
	breakdown map[mpe.Phase]sim.Time
	tr        *trace.Tracer     // traced rep of harness.Run and readback_64
	reg       *metrics.Registry // traced rep of harness.Run and readback_64
	crit      []critpath.Share  // traced rep of harness.RunScale
}

// repResult is one rep's virtual outputs.
type repResult struct {
	cells []cell
	bwGBs float64 // virt_bw_gbs
	// extra holds the rep's other virtual numbers by metric name: the
	// entryCounters, virt_speedup and not_hidden_sync_s on paper_512, and
	// readback_64's mpiio.* times and cache reads.
	extra map[string]float64
	// fingerprint renders every virtual output; reps of one seed must agree.
	fingerprint string
	// digests are the kilo workloads' scale-report digests per variant.
	digests map[harness.ScaleVariant]string
}

func (r *repResult) wallNs() int64 {
	var w int64
	for _, c := range r.cells {
		w += c.wallNs
	}
	return w
}

func (r *repResult) events() int64 {
	var e int64
	for _, c := range r.cells {
		e += c.events
	}
	return e
}

// addCounts adds one run's entryCounters to the rep's.
func (r *repResult) addCounts(retransmits, dedupDrops, netDrops, failoverEpochs int64) {
	r.extra["mpi.retransmits"] += float64(retransmits)
	r.extra["mpi.dedup_drops"] += float64(dedupDrops)
	r.extra["netsim.msgs_dropped"] += float64(netDrops)
	r.extra["adio.failover_epochs"] = max(r.extra["adio.failover_epochs"], float64(failoverEpochs))
}

// repEnv is what a rep needs besides its workload.
type repEnv struct {
	seed   int64
	traced bool // TraceEvents and Metrics on
	spans  *spanLog
}

// workload is one benchmark input: the cluster it builds (timed as
// setup_s) and one rep, a closed-loop unit of work with one client.
type workload struct {
	name    string
	why     string
	cluster func(seed int64) harness.ClusterConfig
	rep     func(env repEnv) (*repResult, error)
	// check, when set, is an extra oracle on an untraced rep's outputs,
	// run outside the timed region.
	check func(seed int64, r *repResult) error
}

// kiloRanks is the kilo workloads' rank count (512 nodes of 8 ranks).
const kiloRanks = 4096

var allWorkloads = []workload{
	{
		name:    "paper_512",
		why:     "The paper's coll_perf experiment at paper scale (512 ranks, 64 aggregators, 16 MiB buffers), cache disabled then enabled; 5 s compute leaves Eq. 1's sync term visible.",
		cluster: harness.DeepER,
		rep:     paperRep,
	},
	{
		name:    "kilo_clean_4096",
		why:     "4096-rank collective write with 16 KiB runs: the cost of collective fan-out with almost no payload, bypassing the data path paper_512 loads.",
		cluster: kiloCluster,
		rep:     kiloRep(harness.ScaleClean),
		check:   checkKiloDigests,
	},
	{
		name:    "kilo_degraded_4096",
		why:     "4096 ranks over 10% lossy links, then with an aggregator node crash: the only workload running reliable delivery, collective timeouts and failover.",
		cluster: kiloCluster,
		rep:     kiloRep(harness.ScaleLossy, harness.ScaleCrash),
		check:   checkKiloDigests,
	},
	{
		name:    "readback_64",
		why:     "64 ranks write real bytes through a strided view, sync, read them back collectively and compare: the only workload moving payload and reading.",
		cluster: readbackCluster,
		rep:     readbackRep,
	},
}

// ---------------------------------------------------------------------------
// paper_512

// paperSpec is one cell of the paper's coll_perf experiment: DEEP-ER 64x8,
// 64 aggregators, 16 MiB collective buffers, 2 files, 5 s compute phases.
func paperSpec(env repEnv, c harness.Case) harness.Spec {
	spec := harness.DefaultSpec(workloads.DefaultCollPerf(), c, 64, 16<<20)
	spec.Cluster = harness.DeepER(env.seed)
	spec.NFiles = 2
	spec.ComputeDelay = 5 * sim.Second
	if c == harness.CacheEnabled {
		spec.FlushFlag = core.FlushImmediate
	}
	spec.TraceEvents, spec.Metrics = env.traced, env.traced
	return spec
}

func paperRep(env repEnv) (*repResult, error) {
	r := &repResult{extra: map[string]float64{}}
	var fp strings.Builder
	var bw [2]float64
	for i, c := range []harness.Case{harness.CacheDisabled, harness.CacheEnabled} {
		spec := paperSpec(env, c)
		var cl *harness.Cluster
		spec.PreRun = func(c *harness.Cluster) error { cl = c; return nil }
		id := env.spans.begin("harness.Run/" + string(c))
		res, err := harness.Run(spec)
		env.spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s cell: %w", c, err)
		}
		if err := paperOracle(c, res, cl); err != nil {
			return nil, err
		}
		r.addCounts(cl.World.Retransmits(), cl.World.DedupDrops(), cl.Fabric.Drops(), res.FailoverEpochs)
		bw[i] = res.BandwidthGBs
		r.cells = append(r.cells, cell{name: string(c), wallNs: int64(res.WallTime),
			events: res.EventsDispatched, breakdown: res.Breakdown, tr: res.Trace, reg: res.Metrics})
		fmt.Fprintf(&fp, "%s: wall=%d events=%d bw=%v", c, res.WallTime, res.EventsDispatched, res.BandwidthGBs)
		for _, ph := range mpe.BreakdownPhases {
			fmt.Fprintf(&fp, " %s=%d", ph, res.Breakdown[ph])
		}
		fp.WriteString("; ")
		if c == harness.CacheEnabled {
			r.extra["not_hidden_sync_s"] = res.Breakdown[mpe.PhaseNotHiddenSync].Seconds()
		}
	}
	r.bwGBs = bw[1]
	r.extra["virt_speedup"] = bw[1] / bw[0]
	r.fingerprint = fp.String()
	return r, nil
}

// paperOracle checks one cell's data accounting: the global file system
// holds every byte, and in the enabled cell the sync thread read every
// byte back out of the SSD caches (cache_synced_bytes_total, when metrics
// are on, must say the same).
func paperOracle(c harness.Case, res *harness.Result, cl *harness.Cluster) error {
	if got := cl.FS.TotalBytesWritten(); got < res.TotalBytes {
		return fmt.Errorf("%s cell: global file system holds %d bytes, want at least %d", c, got, res.TotalBytes)
	}
	if c != harness.CacheEnabled {
		return nil
	}
	var synced int64
	for _, fs := range cl.NVMs {
		synced += fs.Device().BytesRead
	}
	if synced != res.TotalBytes {
		return fmt.Errorf("%s cell: sync read %d bytes from the SSD caches, want %d", c, synced, res.TotalBytes)
	}
	if res.Metrics != nil {
		if got := res.Metrics.SumCounters("cache_synced_bytes_total"); got != res.TotalBytes {
			return fmt.Errorf("%s cell: cache_synced_bytes_total = %d, want %d", c, got, res.TotalBytes)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// kilo_clean_4096, kilo_degraded_4096

func kiloCluster(seed int64) harness.ClusterConfig {
	return harness.Scaled(seed, kiloRanks/8, 8)
}

// kiloRep runs the given harness.RunScale variants one after another.
// The traced rep asks RunScale for its critical-path shares too; RunScale
// returns no trace or registry, so the kilo workloads have no detail
// metrics. Every digest-covered field is the same with analysis on or off,
// so the traced rep's fingerprint must still equal the untraced reps'.
func kiloRep(variants ...harness.ScaleVariant) func(env repEnv) (*repResult, error) {
	return func(env repEnv) (*repResult, error) {
		r := &repResult{extra: map[string]float64{}, digests: map[harness.ScaleVariant]string{}}
		var fp strings.Builder
		var moved int64
		for _, v := range variants {
			id := env.spans.begin("harness.RunScale/" + string(v))
			rep, err := harness.RunScale(harness.ScaleConfig{Variant: v, Ranks: kiloRanks, Seed: env.seed,
				CritPath: env.traced, TraceEvents: env.traced, Metrics: env.traced})
			env.spans.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v, err)
			}
			r.digests[v] = rep.Digest()
			r.cells = append(r.cells, cell{name: string(v), wallNs: rep.WallTimeNs, events: rep.Events, crit: rep.CritPath})
			r.addCounts(rep.Retransmits, rep.DedupDrops, rep.NetDrops, rep.FailoverEpochs)
			moved += rep.ExpectedBytes
			fmt.Fprintf(&fp, "%s: digest=%s; ", v, r.digests[v])
		}
		r.bwGBs = float64(moved) / float64(r.wallNs())
		r.fingerprint = fp.String()
		return r, nil
	}
}

// digestSeed is the seed of the committed 4096-rank scale digests.
const digestSeed = 42

// checkKiloDigests compares each variant's report digest with the
// committed internal/harness/testdata/scale_digest_<variant>_4096.json when
// the rep ran at the digests' seed.
func checkKiloDigests(seed int64, r *repResult) error {
	if seed != digestSeed {
		return nil
	}
	for v, got := range r.digests {
		path := filepath.Join("internal", "harness", "testdata", fmt.Sprintf("scale_digest_%s_%d.json", v, kiloRanks))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("scale digest: %w", err)
		}
		var golden struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("scale digest %s: %w", path, err)
		}
		if got != golden.Digest {
			return fmt.Errorf("%s: scale digest %s differs from committed %s (%s)", v, got, golden.Digest, path)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// readback_64

// readback_64's shape: 8 nodes x 8 ranks; each rank's view is 32 blocks of
// 16 KiB strided by the rank count, and it writes, syncs, reads back and
// closes each of 2 files.
const (
	rbNodes, rbPerNode = 8, 8
	rbBlock            = 16 << 10
	rbBlocks           = 32
	rbFiles            = 2
)

// mpiioOps are the readback calls the benchmark times in virtual time,
// indexed by the op* constants.
var mpiioOps = [...]string{"write_all", "sync", "read_all", "close"}

const (
	opWriteAll = iota
	opSync
	opReadAll
	opClose
)

func readbackCluster(seed int64) harness.ClusterConfig {
	cfg := harness.Scaled(seed, rbNodes, rbPerNode)
	cfg.Payload = true
	return cfg
}

// readbackByte is the byte rank writes at position i of file k's buffer.
func readbackByte(rank, k, i int) byte {
	return byte(rank*131 + i*7 + k*13 + 1)
}

func readbackRep(env repEnv) (*repResult, error) {
	id := env.spans.begin("harness.NewCluster")
	cl := harness.NewCluster(readbackCluster(env.seed))
	env.spans.end(id)
	var tr *trace.Tracer
	var reg *metrics.Registry
	if env.traced {
		tr, reg = trace.New(), metrics.New()
		cl.Kernel.SetTracer(tr)
		cl.Kernel.SetMetrics(reg)
	}
	w := cl.World
	comm := w.Comm()
	n := w.Size()
	logs := make([]*mpe.Log, n)
	for i := range logs {
		logs[i] = mpe.NewLog()
		if tr != nil {
			logs[i].BindTracer(tr, w.Rank(i).TraceTrack(tr))
		}
		if reg != nil {
			logs[i].BindMetrics(reg, i)
		}
	}
	info := mpi.Info{
		adio.HintCBWrite:     adio.HintEnable,
		adio.HintCBRead:      adio.HintEnable,
		adio.HintCBNodes:     fmt.Sprint(rbNodes),
		core.HintCache:       core.CacheEnable,
		core.HintFlushFlag:   core.FlushImmediate,
		core.HintDiscardFlag: "enable",
		core.HintCacheRead:   "enable",
	}
	// calls[k][op] is the slowest rank's virtual time in mpiioOps[op] on file k.
	var calls [rbFiles][len(mpiioOps)]sim.Time
	var cacheReads, failovers int64
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	id = env.spans.begin("mpi.World.Run")
	err := w.Run(func(r *mpi.Rank) {
		me := comm.RankOf(r)
		call := func(k, op int, f func() error) bool {
			t0 := r.Now()
			err := f()
			calls[k][op] = max(calls[k][op], r.Now()-t0)
			fail(err)
			return err == nil
		}
		data := make([]byte, rbBlocks*rbBlock)
		got := make([]byte, len(data))
		for k := 0; k < rbFiles; k++ {
			f, err := cl.Env.OpenWithLog(r, comm, fmt.Sprintf("readback.%d", k),
				mpiio.ModeCreate|mpiio.ModeRdWr, info, logs[me])
			if err != nil {
				fail(err)
				return
			}
			if err := f.SetView(int64(me)*rbBlock, mpiio.Vector(rbBlocks, rbBlock, int64(n)*rbBlock)); err != nil {
				fail(err)
				return
			}
			for i := range data {
				data[i] = readbackByte(me, k, i)
			}
			if !call(k, opWriteAll, func() error { return f.WriteAtAll(0, data, int64(len(data))) }) ||
				!call(k, opSync, f.Sync) ||
				!call(k, opReadAll, func() error { return f.ReadAtAll(0, got, int64(len(got))) }) {
				return
			}
			if !bytes.Equal(got, data) {
				fail(fmt.Errorf("rank %d file %d: read back differs from what it wrote", me, k))
			}
			if c, ok := f.Handle().InstalledHooks().(*core.Cache); ok {
				cacheReads += c.Stats.CacheReads
			}
			failovers = max(failovers, f.Handle().Stats.FailoverEpochs)
			if !call(k, opClose, f.Close) {
				return
			}
		}
	})
	env.spans.end(id)
	if err == nil {
		err = firstErr
	}
	if err != nil {
		return nil, err
	}
	written := int64(n) * rbBlocks * rbBlock * rbFiles
	if got := cl.FS.TotalBytesWritten(); got != written {
		return nil, fmt.Errorf("global file system holds %d bytes, want %d", got, written)
	}
	wall := int64(cl.Kernel.Now())
	r := &repResult{extra: map[string]float64{"core.cache_reads": float64(cacheReads)}}
	r.addCounts(w.Retransmits(), w.DedupDrops(), cl.Fabric.Drops(), failovers)
	bd := make(map[mpe.Phase]sim.Time)
	for _, ph := range mpe.BreakdownPhases {
		bd[ph] = mpe.Aggregate(logs, ph).Max
	}
	r.cells = []cell{{name: "readback", wallNs: wall, events: cl.Kernel.EventsDispatched(),
		breakdown: bd, tr: tr, reg: reg}}
	r.bwGBs = float64(2*written) / float64(wall)
	var fp strings.Builder
	fmt.Fprintf(&fp, "wall=%d events=%d cache_reads=%d", wall, cl.Kernel.EventsDispatched(), cacheReads)
	for j, op := range mpiioOps {
		var sum sim.Time
		for k := range calls {
			sum += calls[k][j]
		}
		r.extra["mpiio."+op+"_ms"] = float64(sum) / 1e6
		fmt.Fprintf(&fp, " %s=%d", op, sum)
	}
	r.fingerprint = fp.String()
	return r, nil
}
