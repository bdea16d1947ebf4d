// Package repro is a from-scratch Go reproduction of "Improving Collective
// I/O Performance Using Non-Volatile Memory Devices" (Congiu,
// Narasimhamurthy, Süß, Brinkmann — IEEE CLUSTER 2016).
//
// The paper integrates node-local SSDs into ROMIO's collective write path
// as a persistent cache controlled by new MPI-IO hints (e10_cache and
// friends, Table II), with a background sync thread that drains cached
// file domains to the global parallel file system while the application
// computes. This package re-implements the whole stack as a deterministic
// discrete-event simulation: the MPI layer, ROMIO's extended two-phase
// collective write, a BeeGFS-like striped file system, node-local NVM
// devices, the E10 cache layer itself, the MPIWRAP workflow wrapper, and
// the three evaluation workloads (coll_perf, Flash-IO, IOR).
//
// This root package is the public facade: it re-exports the user-level
// types needed to build a simulated cluster, open files with the paper's
// hints, and regenerate every evaluation figure. The implementation lives
// in internal/ packages (see DESIGN.md for the system inventory).
//
// Quick start:
//
//	cluster := repro.NewCluster(repro.Scaled(1, 8, 4))
//	spec := repro.DefaultSpec(repro.DefaultCollPerf(), repro.CacheEnabled, 64, 16<<20)
//	res, err := repro.Run(spec)
//	fmt.Printf("%.2f GB/s\n", res.BandwidthGBs)
package repro

import (
	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/mpiwrap"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ---- Simulation and cluster construction ----

// Time is virtual simulation time in nanoseconds.
type Time = sim.Time

// Time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// ClusterConfig describes a simulated machine; Cluster is the machine.
type (
	ClusterConfig = harness.ClusterConfig
	Cluster       = harness.Cluster
)

// DeepER returns the paper's 64-node × 8-rank testbed profile (§IV-A);
// Scaled shrinks it proportionally; NewCluster assembles the machine.
var (
	DeepER     = harness.DeepER
	Scaled     = harness.Scaled
	NewCluster = harness.NewCluster
)

// ---- MPI and MPI-IO surface ----

// Rank is one MPI process; Comm a communicator; Info an MPI_Info hint set.
type (
	Rank = mpi.Rank
	Comm = mpi.Comm
	Info = mpi.Info
)

// File is an open MPI-IO file; FlatType a flattened datatype for file
// views; Env the per-cluster open environment (available as Cluster.Env).
type (
	File     = mpiio.File
	FlatType = mpiio.FlatType
	Env      = mpiio.Env
)

// MPI_File_open access modes.
const (
	ModeRdOnly        = mpiio.ModeRdOnly
	ModeWrOnly        = mpiio.ModeWrOnly
	ModeRdWr          = mpiio.ModeRdWr
	ModeCreate        = mpiio.ModeCreate
	ModeDeleteOnClose = mpiio.ModeDeleteOnClose
)

// Contiguous, Vector and Subarray3D build flattened datatypes for file
// views (Subarray3D is MPI_Type_create_subarray over a byte etype).
var (
	Contiguous = mpiio.Contiguous
	Vector     = mpiio.Vector
	Subarray3D = mpiio.Subarray3D
)

// ---- Hints (Tables I and II of the paper) ----

// Standard ROMIO collective-I/O hints (Table I).
const (
	HintCBWrite         = adio.HintCBWrite
	HintCBRead          = adio.HintCBRead
	HintCBBufferSize    = adio.HintCBBufferSize
	HintCBNodes         = adio.HintCBNodes
	HintCBConfigList    = adio.HintCBConfigList
	HintIndWrBufferSize = adio.HintIndWrBufferSize
	HintStripingFactor  = adio.HintStripingFactor
	HintStripingUnit    = adio.HintStripingUnit
)

// E10 cache hint extensions (Table II), plus the e10_cache_read
// future-work extension.
const (
	HintE10Cache            = core.HintCache
	HintE10CachePath        = core.HintCachePath
	HintE10CacheFlushFlag   = core.HintFlushFlag
	HintE10CacheDiscardFlag = core.HintDiscardFlag
	HintE10CacheRead        = core.HintCacheRead
)

// Values for the e10_* hints. FlushAdaptive is the congestion-aware
// extension of §III's policy discussion.
const (
	CacheValueEnable   = core.CacheEnable
	CacheValueDisable  = core.CacheDisable
	CacheValueCoherent = core.CacheCoherent
	FlushImmediate     = core.FlushImmediate
	FlushOnClose       = core.FlushOnClose
	FlushAdaptive      = core.FlushAdaptive
)

// ---- MPIWRAP ----

// Wrapper applies the paper's §III-C workflow transformation (deferred
// close + config-file hints) around MPI_File_{open,close}.
type (
	Wrapper       = mpiwrap.Wrapper
	WrapperConfig = mpiwrap.Config
)

// NewWrapper creates the per-rank wrapper; ParseWrapperConfig parses the
// MPIWRAP configuration format.
var (
	NewWrapper         = mpiwrap.New
	ParseWrapperConfig = mpiwrap.ParseConfig
)

// ---- Workloads and experiments ----

// Workload is one of the paper's benchmarks; the three implementations are
// CollPerf, FlashIO and IOR.
type (
	Workload = workloads.Workload
	CollPerf = workloads.CollPerf
	FlashIO  = workloads.FlashIO
	IOR      = workloads.IOR
)

// Default workload configurations matching §IV.
var (
	DefaultCollPerf = workloads.DefaultCollPerf
	DefaultFlashIO  = workloads.DefaultFlashIO
	DefaultIOR      = workloads.DefaultIOR
)

// Case selects the evaluation data path; Spec and Result describe one
// experiment cell; Sweep and SweepResult cover the full grids of the
// paper's figures.
type (
	Case        = harness.Case
	Spec        = harness.Spec
	Result      = harness.Result
	Sweep       = harness.Sweep
	SweepResult = harness.SweepResult
)

// The three evaluation cases of Figures 4, 7 and 9.
const (
	CacheDisabled    = harness.CacheDisabled
	CacheEnabled     = harness.CacheEnabled
	CacheTheoretical = harness.CacheTheoretical
	// BurstBufferCase stages writes in dedicated NVMe proxies — the §V
	// comparator architecture, not part of the paper's own evaluation.
	BurstBufferCase = harness.BurstBuffer
)

// Experiment entry points.
var (
	DefaultSpec = harness.DefaultSpec
	Run         = harness.Run
	RunSweep    = harness.RunSweep
	PaperSweep  = harness.PaperSweep
	QuickSweep  = harness.QuickSweep
	AllCases    = harness.AllCases
)
