package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/critpath"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ScaleSchema versions the scale-report digest. Bump it whenever a field
// is added to the digest text, so stale committed digests fail loudly
// instead of comparing garbage.
const ScaleSchema = "e10scale/v1"

// ScaleVariant names one of the three kilo-rank scenarios.
type ScaleVariant string

// The three TestScale_ scenarios: a clean collective write through the
// NVM cache, the same write over lossy links with reliable delivery, and
// an aggregator-node crash mid-write on the resilient path.
const (
	ScaleClean ScaleVariant = "clean"
	ScaleLossy ScaleVariant = "lossy"
	ScaleCrash ScaleVariant = "crash"
)

// ScaleConfig parameterizes one kilo-rank collective write.
type ScaleConfig struct {
	Variant ScaleVariant
	Ranks   int   // total MPI ranks (default 1024)
	PerNode int   // ranks per node (default 8)
	Seed    int64 // kernel seed (default 42)
	// DropPct is the outbound loss probability, in percent, armed on every
	// node for the lossy variant (default 10 when Variant == ScaleLossy).
	DropPct int
	// CrashNodes is how many nodes the crash variant kills mid-write
	// (default 1 when Variant == ScaleCrash). Node 0 is never crashed so
	// rank 0's bookkeeping survives.
	CrashNodes int
	// CrashAt is the virtual time of the first crash; later crashes follow
	// at 1 ms intervals. Zero means "mid write phase" (defaultCrashAt).
	CrashAt sim.Time
	// RunKB is the contiguous run size per rank in KiB; each rank writes
	// 4 runs (2x2), so the per-rank block is 4*RunKB KiB (default 16).
	RunKB int
	// Metrics/TraceEvents pass through to the Spec. Off by default: the
	// kilo-rank path is also the zero-observability fast path.
	Metrics     bool
	TraceEvents bool
	// CritPath additionally runs the critical-path analyzer on the trace
	// (implies tracing) and fills ScaleReport.CritPath with the top-of-path
	// category shares. Like tracing, it is post-hoc: every digest-covered
	// field is byte-identical with it on or off.
	CritPath bool
}

// defaultCrashAt lands inside the first collective write phase at every
// supported scale: opens at 4096 ranks finish well before it, and the
// write itself runs for seconds of virtual time.
const defaultCrashAt = 80 * sim.Millisecond

// scaleCollTimeout replaces DefaultCollTimeout (200 ms) on reliable scale
// runs. At kilo-rank counts the arrival skew of a healthy collective —
// stragglers delayed by retransmit backoff — can exceed 200 ms, which
// would fire spurious timeouts; crash detection still works, it just
// waits this long before declaring an aggregator dead.
const scaleCollTimeout = 30 * sim.Second

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Variant == "" {
		c.Variant = ScaleClean
	}
	if c.Ranks == 0 {
		c.Ranks = 1024
	}
	if c.PerNode == 0 {
		c.PerNode = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.RunKB == 0 {
		c.RunKB = 16
	}
	if c.Variant == ScaleLossy && c.DropPct == 0 {
		c.DropPct = 10
	}
	if c.Variant == ScaleCrash {
		if c.CrashNodes == 0 {
			c.CrashNodes = 1
		}
		if c.CrashAt == 0 {
			c.CrashAt = defaultCrashAt
		}
	}
	if c.Variant != ScaleLossy {
		c.DropPct = 0
	}
	if c.Variant != ScaleCrash {
		c.CrashNodes, c.CrashAt = 0, 0
	}
	return c
}

// ScaleReport is one scale run's outcome. Every field except the Host*
// pair is a pure function of the config, so Digest() is a determinism
// oracle: same seed, same digest — across runs and across commits.
type ScaleReport struct {
	Schema     string       `json:"schema"`
	Variant    ScaleVariant `json:"variant"`
	Ranks      int          `json:"ranks"`
	Nodes      int          `json:"nodes"`
	PerNode    int          `json:"per_node"`
	Seed       int64        `json:"seed"`
	DropPct    int          `json:"drop_pct"`
	CrashNodes int          `json:"crash_nodes"`
	CrashAtNs  int64        `json:"crash_at_ns"`
	RunKB      int          `json:"run_kb"`

	WallTimeNs     int64 `json:"wall_time_ns"`
	Events         int64 `json:"events"`
	ExpectedBytes  int64 `json:"expected_bytes"`
	PFSBytes       int64 `json:"pfs_bytes"`
	Retransmits    int64 `json:"retransmits"`
	DedupDrops     int64 `json:"dedup_drops"`
	NetDrops       int64 `json:"net_drops"`
	FailoverEpochs int64 `json:"failover_epochs"`

	// Host-side throughput measurement: how fast the kernel chewed through
	// the run on this machine. Excluded from the digest (host-dependent).
	HostNs       int64   `json:"host_ns"`
	EventsPerSec float64 `json:"events_per_sec"`

	// Workers is how many worker coroutines the kernel started
	// (sim.Kernel.WorkersStarted): deterministic, but a property of the
	// simulator rather than of the simulated run, so it stays out of the
	// digest and the committed files.
	Workers int64 `json:"-"`

	// CritPath holds the critical path's category shares when
	// ScaleConfig.CritPath was set. Excluded from the digest text so the
	// committed digests stay byte-identical with analysis on or off (the
	// analyzer's sum-to-wall invariant is asserted by RunScale instead).
	CritPath []critpath.Share `json:"critpath,omitempty"`

	// CritPathFull is the complete analyzer report (stragglers, path
	// segments, message edges, what-ifs) backing the CritPath shares.
	// Never serialized: the shares are the stable exchange surface.
	CritPathFull *critpath.Report `json:"-"`
}

// ScaleGolden is a committed scale digest (testdata/scale_digest_*.json):
// the full deterministic report plus its digest, so a mismatch diff shows
// which field moved.
type ScaleGolden struct {
	Report ScaleReport `json:"report"`
	Digest string      `json:"digest"`
}

// Text renders the deterministic portion of the report, one "k=v" per
// line. This is the digest's preimage.
func (r *ScaleReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema=%s\n", r.Schema)
	fmt.Fprintf(&b, "variant=%s\n", r.Variant)
	fmt.Fprintf(&b, "ranks=%d nodes=%d per_node=%d seed=%d\n", r.Ranks, r.Nodes, r.PerNode, r.Seed)
	fmt.Fprintf(&b, "drop_pct=%d crash_nodes=%d crash_at_ns=%d run_kb=%d\n",
		r.DropPct, r.CrashNodes, r.CrashAtNs, r.RunKB)
	fmt.Fprintf(&b, "wall_time_ns=%d\n", r.WallTimeNs)
	fmt.Fprintf(&b, "events=%d\n", r.Events)
	fmt.Fprintf(&b, "expected_bytes=%d pfs_bytes=%d\n", r.ExpectedBytes, r.PFSBytes)
	fmt.Fprintf(&b, "retransmits=%d dedup_drops=%d net_drops=%d failover_epochs=%d\n",
		r.Retransmits, r.DedupDrops, r.NetDrops, r.FailoverEpochs)
	return b.String()
}

// Digest returns the hex SHA-256 of Text().
func (r *ScaleReport) Digest() string {
	h := sha256.Sum256([]byte(r.Text()))
	return hex.EncodeToString(h[:])
}

// scaleWorkload returns the per-rank write pattern: 4 contiguous runs of
// RunKB KiB in a 3D-block coll_perf layout, enough to exercise the full
// two-phase shuffle without drowning kilo-rank runs in payload.
func scaleWorkload(cfg ScaleConfig) workloads.CollPerf {
	return workloads.CollPerf{RunBytes: int64(cfg.RunKB) << 10, RunsY: 2, RunsZ: 2}
}

// crashTargets returns the node indices the crash variant kills: nodes
// 1..CrashNodes (node 0 is spared; it hosts rank 0).
func crashTargets(cfg ScaleConfig, nodes int) []int {
	ts := make([]int, 0, cfg.CrashNodes)
	for n := 1; n <= cfg.CrashNodes && n < nodes; n++ {
		ts = append(ts, n)
	}
	return ts
}

// RunScale executes one kilo-rank collective write and returns its
// report. The run is deterministic: every digest-covered field is a pure
// function of the config.
func RunScale(cfg ScaleConfig) (*ScaleReport, error) { return runScale(cfg, nil) }

// runScale is RunScale with a block probe for the kernel (nil for none).
func runScale(cfg ScaleConfig, probe func()) (*ScaleReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Ranks%cfg.PerNode != 0 {
		return nil, fmt.Errorf("scale: ranks %d not divisible by per-node %d", cfg.Ranks, cfg.PerNode)
	}
	nodes := cfg.Ranks / cfg.PerNode
	w := scaleWorkload(cfg)

	spec := Spec{
		Workload:     w,
		Cluster:      Scaled(cfg.Seed, nodes, cfg.PerNode),
		Case:         CacheEnabled,
		Aggregators:  nodes,
		CBBuffer:     16 << 20,
		NFiles:       1,
		ComputeDelay: 100 * sim.Millisecond,
		StripeSize:   4 << 20,
		StripeCount:  4,
		SyncBuffer:   512 << 10,
		Metrics:      cfg.Metrics,
		TraceEvents:  cfg.TraceEvents || cfg.CritPath,
		blockProbe:   probe,
	}
	switch cfg.Variant {
	case ScaleClean:
	case ScaleLossy:
		spec.Reliable = true
		spec.CollTimeout = scaleCollTimeout
		p := float64(cfg.DropPct) / 100
		spec.PreRun = func(cl *Cluster) error {
			for n := 0; n < nodes; n++ {
				cl.Fabric.Node(n).SetLossy(p)
			}
			return nil
		}
	case ScaleCrash:
		// The resilient failover path writes straight to the PFS; the cache
		// layer is bypassed so a crashed aggregator cannot strand dirty
		// extents that only a recovery session could replay.
		spec.Case = CacheDisabled
		spec.Reliable = true
		spec.Resilient = true
		spec.CollTimeout = scaleCollTimeout
		spec.PreRun = func(cl *Cluster) error {
			cl.OnCrash = func(node int) { cl.World.KillNode(node) }
			for i, n := range crashTargets(cfg, nodes) {
				node := n
				cl.Kernel.After(cfg.CrashAt+sim.Time(i)*sim.Millisecond, func() {
					cl.OnCrash(node)
				})
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("scale: unknown variant %q", cfg.Variant)
	}

	host0 := time.Now()
	res, cl, err := run(spec)
	hostNs := time.Since(host0).Nanoseconds()
	if err != nil {
		return nil, err
	}

	rep := &ScaleReport{
		Schema:        ScaleSchema,
		Variant:       cfg.Variant,
		Ranks:         cfg.Ranks,
		Nodes:         nodes,
		PerNode:       cfg.PerNode,
		Seed:          cfg.Seed,
		DropPct:       cfg.DropPct,
		CrashNodes:    cfg.CrashNodes,
		CrashAtNs:     int64(cfg.CrashAt),
		RunKB:         cfg.RunKB,
		WallTimeNs:    int64(res.WallTime),
		Events:        res.EventsDispatched,
		ExpectedBytes: w.FileBytes(cfg.Ranks),
		PFSBytes:      cl.FS.TotalBytesWritten(),
		Retransmits:   cl.World.Retransmits(),
		DedupDrops:    cl.World.DedupDrops(),

		FailoverEpochs: res.FailoverEpochs,
		HostNs:         hostNs,
		Workers:        cl.Kernel.WorkersStarted(),
	}
	rep.NetDrops = cl.Fabric.Drops()
	if hostNs > 0 {
		rep.EventsPerSec = float64(rep.Events) / (float64(hostNs) / 1e9)
	}

	if cfg.CritPath {
		crit := critpath.Analyze(res.Trace, int64(res.WallTime))
		if crit.AttributedNs != int64(res.WallTime) {
			return nil, fmt.Errorf("scale: critical path attributed %d ns, want wall time %d",
				crit.AttributedNs, int64(res.WallTime))
		}
		rep.CritPath = crit.Shares
		rep.CritPathFull = crit
	}

	if err := checkScaleConservation(cfg, cl, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// checkScaleConservation asserts the byte-conservation oracle: every
// surviving rank's extents reached the global file.
func checkScaleConservation(cfg ScaleConfig, cl *Cluster, rep *ScaleReport) error {
	w := scaleWorkload(cfg)
	meta := cl.FS.Lookup(w.Name() + ".0000")
	if meta == nil {
		return fmt.Errorf("scale: global file missing after run")
	}
	written := meta.Store().Written()
	nodes := rep.Nodes
	dead := make(map[int]bool)
	for _, n := range crashTargets(cfg, nodes) {
		dead[n] = true
	}
	for rank := 0; rank < cfg.Ranks; rank++ {
		if dead[rank/cfg.PerNode] {
			continue
		}
		for _, seg := range w.Segments(rank, cfg.Ranks) {
			if !written.Covers(seg) {
				return fmt.Errorf("scale: rank %d extent [%d,+%d) missing from global file",
					rank, seg.Off, seg.Len)
			}
		}
	}
	if got := meta.Size(); cfg.Variant != ScaleCrash && got != rep.ExpectedBytes {
		return fmt.Errorf("scale: file size %d, want %d", got, rep.ExpectedBytes)
	}
	return nil
}
