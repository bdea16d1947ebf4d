// Package harness assembles the simulated DEEP-ER cluster and regenerates
// every figure of the paper's evaluation: the perceived-bandwidth sweeps
// (Figures 4, 7, 9) and the collective-I/O cost breakdowns (Figures 5, 6,
// 8, 10), over the <aggregators>_<coll_bufsize> grid, for the three cases
// BW Cache Disabled, BW Cache Enabled and TBW Cache Enabled.
package harness

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/bufpool"
	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// ClusterConfig describes one simulated machine.
type ClusterConfig struct {
	Seed         int64
	Nodes        int
	RanksPerNode int
	Net          netsim.Config
	PFS          pfs.Config
	SSD          nvm.DeviceConfig
	Payload      bool // real bytes (tests) vs extents only (big runs)
	// BurstBuffer, when non-nil, provisions dedicated burst-buffer proxy
	// nodes (the §V comparator architecture) in addition to the compute
	// nodes. The harness selects the tier per experiment case.
	BurstBuffer *burst.Config
}

// DeepER returns the testbed of §IV-A: 64 nodes × 8 ranks, BeeGFS with four
// ~500 MB/s data targets, one SATA SSD per node, InfiniBand QDR.
func DeepER(seed int64) ClusterConfig {
	return ClusterConfig{
		Seed:         seed,
		Nodes:        64,
		RanksPerNode: 8,
		Net:          netsim.DefaultConfig(64),
		PFS:          pfs.DefaultConfig(),
		SSD:          nvm.DefaultDeviceConfig(),
	}
}

// Scaled shrinks the DEEP-ER profile for fast tests while keeping the
// hardware ratios.
func Scaled(seed int64, nodes, perNode int) ClusterConfig {
	cfg := DeepER(seed)
	cfg.Nodes = nodes
	cfg.RanksPerNode = perNode
	cfg.Net = netsim.DefaultConfig(nodes)
	return cfg
}

// Cluster is one assembled machine.
type Cluster struct {
	Cfg     ClusterConfig
	Kernel  *sim.Kernel
	Fabric  *netsim.Fabric
	FS      *pfs.System
	World   *mpi.World
	NVMs    []*nvm.FS
	Clients []*pfs.Client
	Env     *mpiio.Env
	CoreEnv *core.Env
	BB      *burst.Pool // nil unless Cfg.BurstBuffer is set

	// OnCrash handles crash-node faults: it receives the dying node's index
	// and must kill that node's cache layer (internal/chaos registers the
	// node's open caches here). Left nil, arming a crash-node fault fails
	// validation instead of silently doing nothing.
	OnCrash func(node int)
}

// NewCluster builds the machine: kernel, fabric, global file system with
// one client per node, one SSD file system per node, MPI world, driver
// registry (BeeGFS as default driver) and the E10 cache environment.
func NewCluster(cfg ClusterConfig) *Cluster {
	k := sim.NewKernel(cfg.Seed)
	netCfg := cfg.Net
	bbProxies := 0
	if cfg.BurstBuffer != nil {
		bbProxies = cfg.BurstBuffer.Proxies
		netCfg.Nodes = cfg.Nodes + bbProxies
	}
	fab := netsim.New(k, netCfg)
	// One byte pool serves the cluster's whole payload path: the file
	// pages, which a cache file and its global file share, recovery's
	// buffers and a sieved write's window. A run without a payload never
	// draws from it.
	pool := bufpool.New()
	factory := store.NewNull
	if cfg.Payload {
		factory = store.PooledMem(pool)
	}
	fs := pfs.New(k, cfg.PFS, factory)
	// Node-local NVM gets the checksummed variant: at-rest corruption
	// (torn-write/bit-rot faults) must be detectable there. The wrapper
	// charges no simulated time, so fault-free runs are byte-identical.
	nvmFactory := store.NewNullChecksummed
	if cfg.Payload {
		nvmFactory = store.PooledMemChecksummed(pool)
	}
	clients := make([]*pfs.Client, cfg.Nodes)
	nvms := make([]*nvm.FS, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		clients[i] = fs.NewClient(fab.Node(i))
		dev := nvm.NewDevice(k, "ssd", fmt.Sprintf("ssd.n%d", i), cfg.SSD)
		nvms[i] = nvm.NewFS(dev, nvm.FSConfig{SupportsFallocate: true}, nvmFactory)
	}
	w := mpi.NewWorldOn(k, fab, cfg.RanksPerNode, cfg.Nodes)
	w.SetPool(pool)
	drv := adio.NewBeeGFSDriver(func(n int) *pfs.Client { return clients[n] })
	reg := adio.NewRegistry(drv)
	reg.Mount("ufs", adio.NewUFSDriver(func(n int) *pfs.Client { return clients[n] }))
	coreEnv := &core.Env{
		LocalFS: func(n int) *nvm.FS { return nvms[n] },
		Locks:   fs.Locks,
	}
	env := &mpiio.Env{Registry: reg, Hooks: coreEnv.HooksFactory()}
	cl := &Cluster{
		Cfg: cfg, Kernel: k, Fabric: fab, FS: fs, World: w,
		NVMs: nvms, Clients: clients, Env: env, CoreEnv: coreEnv,
	}
	if cfg.BurstBuffer != nil {
		bbNodes := make([]*netsim.Node, bbProxies)
		bbClients := make([]*pfs.Client, bbProxies)
		for i := 0; i < bbProxies; i++ {
			bbNodes[i] = fab.Node(cfg.Nodes + i)
			bbClients[i] = fs.NewClient(bbNodes[i])
		}
		cl.BB = burst.NewPool(k, *cfg.BurstBuffer, bbNodes, bbClients, factory)
	}
	return cl
}

// FaultTargets exposes the cluster's hardware to the fault engine.
func (cl *Cluster) FaultTargets() fault.Targets {
	return fault.Targets{
		Devices: func(n int) *nvm.Device {
			if n < 0 || n >= len(cl.NVMs) {
				return nil
			}
			return cl.NVMs[n].Device()
		},
		PFS:       cl.FS,
		Net:       cl.Fabric,
		Crash:     cl.OnCrash,
		TornWrite: func(n int) { cl.CoreEnv.TearNode(n) },
		BitRot:    cl.rotNode,
	}
}

// rotNode applies a bit-rot fault to node's at-rest NVM state: every
// retained journal image byte and every written cache-store chunk rots
// with probability rate, drawn from the kernel's seeded RNG so the damage
// replays bit-for-bit. Pure bookkeeping — no simulated time passes.
func (cl *Cluster) rotNode(node int, rate float64) {
	if node < 0 || node >= len(cl.NVMs) {
		return
	}
	rng := cl.Kernel.Rand()
	cl.CoreEnv.RotNode(node, rng, rate)
	for _, f := range cl.NVMs[node].Files() {
		integ, ok := f.Store().(store.Integrity)
		if !ok {
			continue
		}
		for _, e := range f.Store().Written().Extents() {
			for off := e.Off; off < e.End(); off += store.ChecksumChunk {
				if rng.Float64() < rate {
					integ.CorruptAt(off, 1)
				}
			}
		}
	}
}

// ArmFaults validates s against this cluster and schedules its faults on
// the kernel. Call before the run starts (fault times must not be in the
// past). A nil/empty schedule arms nothing and returns an empty injector.
func (cl *Cluster) ArmFaults(s *fault.Schedule) (*fault.Injector, error) {
	return fault.Arm(cl.Kernel, s, cl.FaultTargets())
}
