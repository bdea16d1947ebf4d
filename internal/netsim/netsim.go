// Package netsim models the cluster interconnect: compute nodes with
// injection/ejection NIC bandwidth, a constant-latency fabric, and an
// intra-node memory path for ranks co-located on a node.
//
// The model is LogGP-flavoured: a message occupies the sender's injection
// port for size/injection-rate, travels for the fabric latency, then
// occupies the receiver's ejection port for size/ejection-rate. Eight ranks
// per node therefore contend for their shared NIC, which is one of the
// effects the paper's evaluation depends on.
package netsim

import (
	"fmt"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Config describes a fabric.
type Config struct {
	Nodes      int      // number of compute nodes
	InjRate    sim.Rate // per-node injection (TX) bandwidth
	EjeRate    sim.Rate // per-node ejection (RX) bandwidth
	Latency    sim.Time // end-to-end wire latency
	MemRate    sim.Rate // intra-node copy bandwidth (shared per node)
	MemLatency sim.Time // intra-node copy latency
	InjJitter  sim.Dist // optional per-transfer jitter on NIC occupancy
}

// DefaultConfig returns parameters approximating the DEEP-ER cluster's
// InfiniBand QDR network (§IV-A of the paper).
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:      nodes,
		InjRate:    3.2 * sim.GBps,
		EjeRate:    3.2 * sim.GBps,
		Latency:    2 * sim.Microsecond,
		MemRate:    6 * sim.GBps,
		MemLatency: 300 * sim.Nanosecond,
		InjJitter:  sim.UnitLogNormal(0.03),
	}
}

// Fabric is the interconnect instance.
type Fabric struct {
	k     *sim.Kernel
	cfg   Config
	nodes []*Node

	// partition, when non-nil, is the set of node ids currently cut from
	// the rest of the fabric. Messages crossing the cut are dropped at the
	// sender; messages within one side flow normally.
	partition map[int]bool
	onChange  []func()
}

// New builds a fabric with cfg.Nodes nodes.
func New(k *sim.Kernel, cfg Config) *Fabric {
	if cfg.Nodes < 1 {
		panic("netsim: need at least one node")
	}
	f := &Fabric{k: k, cfg: cfg}
	f.nodes = make([]*Node, cfg.Nodes)
	for i := range f.nodes {
		f.nodes[i] = &Node{
			id:     i,
			fabric: f,
			inj:    sim.NewStation(k, fmt.Sprintf("node%d.tx", i), 1),
			eje:    sim.NewStation(k, fmt.Sprintf("node%d.rx", i), 1),
			mem:    sim.NewStation(k, fmt.Sprintf("node%d.mem", i), 1),
			slow:   1,
		}
	}
	return f
}

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return len(f.nodes) }

// Node returns node i.
func (f *Fabric) Node(i int) *Node { return f.nodes[i] }

// Latency returns the configured fabric latency.
func (f *Fabric) Latency() sim.Time { return f.cfg.Latency }

// SetPartition cuts the fabric between group and the remaining nodes (on
// true), or heals the cut (on false, group ignored). While a partition is
// up, any message whose source and destination fall on opposite sides is
// dropped at the sender's NIC. Registered OnChange observers run after the
// topology flips so held collectives can re-evaluate reachability.
func (f *Fabric) SetPartition(group []int, on bool) {
	if on {
		f.partition = make(map[int]bool, len(group))
		for _, id := range group {
			if id < 0 || id >= len(f.nodes) {
				panic(fmt.Sprintf("netsim: partition node %d outside [0,%d)", id, len(f.nodes)))
			}
			f.partition[id] = true
		}
	} else {
		f.partition = nil
	}
	for _, fn := range f.onChange {
		fn()
	}
}

// Partitioned reports whether nodes a and b are currently on opposite sides
// of a partition.
func (f *Fabric) Partitioned(a, b int) bool {
	if f.partition == nil || a == b {
		return false
	}
	return f.partition[a] != f.partition[b]
}

// Isolated reports whether node id is currently cut from at least one other
// node of the fabric.
func (f *Fabric) Isolated(id int) bool {
	if f.partition == nil {
		return false
	}
	in := f.partition[id]
	for other := range f.nodes {
		if other != id && f.partition[other] != in {
			return true
		}
	}
	return false
}

// Drops returns the total outbound messages lost across all nodes (lossy
// links and partition cuts).
func (f *Fabric) Drops() int64 {
	var n int64
	for _, nd := range f.nodes {
		n += nd.drops
	}
	return n
}

// OnChange registers fn to run after every partition topology change.
func (f *Fabric) OnChange(fn func()) { f.onChange = append(f.onChange, fn) }

// Fate classifies what the fabric does to one message attempt.
type Fate int

const (
	FateDeliver   Fate = iota // message arrives normally
	FateDrop                  // lost on the wire (lossy link)
	FateDup                   // delivered, then delivered again
	FatePartition             // dropped at the cut between partitioned sides
)

// MessageFate decides, consuming the kernel RNG only when a lossy/dup
// probability is armed on the source node, what happens to a message from
// src to dst. Partition checks are free (no randomness), so an idle fabric
// with no faults armed draws nothing — determinism of fault-free runs is
// preserved.
func (f *Fabric) MessageFate(src, dst int) Fate {
	if f.Partitioned(src, dst) {
		return FatePartition
	}
	n := f.nodes[src]
	if n.dropP > 0 && f.k.Rand().Float64() < n.dropP {
		return FateDrop
	}
	if n.dupP > 0 && f.k.Rand().Float64() < n.dupP {
		return FateDup
	}
	return FateDeliver
}

// Node is one compute node's network endpoint.
type Node struct {
	id     int
	fabric *Fabric
	inj    *sim.Station
	eje    *sim.Station
	mem    *sim.Station
	slow   float64 // link speed factor in (0, 1]; 1 = nominal
	dropP  float64 // probability an outbound message is lost; 0 = reliable
	dupP   float64 // probability an outbound message is duplicated
	drops  int64   // messages lost on this node's outbound link
	dups   int64   // messages duplicated on this node's outbound link

	// Metric handles, registered lazily on first use (the registry may be
	// attached to the kernel after the fabric is built).
	mreg   bool
	mTx    *metrics.Counter
	mRx    *metrics.Counter
	mCopy  *metrics.Counter
	mInjNs *metrics.Histogram // injection-port occupancy incl. queueing
	mEjeNs *metrics.Histogram // ejection-port occupancy incl. queueing
	mDegr  *metrics.Counter   // SetDegraded transitions
	mDrops *metrics.Counter   // messages lost to a lossy link or partition
	mDups  *metrics.Counter   // messages duplicated by a dup link
}

// metricsOn resolves (and caches) this node's metric handles; it returns
// false when metrics are disabled, keeping the disabled cost one branch.
func (n *Node) metricsOn() bool {
	m := n.fabric.k.Metrics()
	if m == nil {
		return false
	}
	if !n.mreg {
		layer := metrics.L(metrics.KeyLayer, "netsim")
		node := metrics.L(metrics.KeyNode, strconv.Itoa(n.id))
		n.mTx = m.Counter("net_tx_bytes_total", layer, node)
		n.mRx = m.Counter("net_rx_bytes_total", layer, node)
		n.mCopy = m.Counter("net_copy_bytes_total", layer, node)
		n.mInjNs = m.Histogram("net_inj_ns", layer, node)
		n.mEjeNs = m.Histogram("net_eje_ns", layer, node)
		n.mDegr = m.Counter("net_degrade_events_total", layer, node)
		n.mDrops = m.Counter("net_msgs_dropped_total", layer, node)
		n.mDups = m.Counter("net_msgs_duplicated_total", layer, node)
		n.mreg = true
	}
	return true
}

// ID returns the node index.
func (n *Node) ID() int { return n.id }

// SetDegraded scales this node's NIC bandwidth to factor (in (0, 1]) of
// nominal — a flapping link or failed-over lane. factor 1 restores full
// speed.
func (n *Node) SetDegraded(factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("netsim: degrade factor %v outside (0, 1]", factor))
	}
	n.slow = factor
	if n.metricsOn() {
		n.mDegr.Inc()
	}
}

// Degraded returns the current link speed factor.
func (n *Node) Degraded() float64 { return n.slow }

// SetLossy arms (or, with p == 0, disarms) probabilistic message loss on
// this node's outbound link. p must lie in [0, 1).
func (n *Node) SetLossy(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: loss probability %v outside [0, 1)", p))
	}
	n.dropP = p
}

// Lossy returns the current outbound loss probability.
func (n *Node) Lossy() float64 { return n.dropP }

// SetDup arms (or, with p == 0, disarms) probabilistic message duplication
// on this node's outbound link. p must lie in [0, 1).
func (n *Node) SetDup(p float64) {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("netsim: dup probability %v outside [0, 1)", p))
	}
	n.dupP = p
}

// Dup returns the current outbound duplication probability.
func (n *Node) Dup() float64 { return n.dupP }

// Isolated reports whether this node is on the cut side of an active
// partition (see Fabric.Isolated).
func (n *Node) Isolated() bool { return n.fabric.Isolated(n.id) }

// CountDrop records one message lost on this node's outbound link (lossy
// link or partition cut). The bytes never reach the wire, so only the
// counter moves.
func (n *Node) CountDrop() {
	n.drops++
	if n.metricsOn() {
		n.mDrops.Inc()
	}
}

// CountDup records one message duplicated on this node's outbound link.
func (n *Node) CountDup() {
	n.dups++
	if n.metricsOn() {
		n.mDups.Inc()
	}
}

// Dups returns how many outbound messages this node has duplicated.
func (n *Node) Dups() int64 { return n.dups }

// stretch scales a nominal NIC duration by the degradation factor.
func (n *Node) stretch(d sim.Time) sim.Time {
	if n.slow == 1 {
		return d
	}
	return sim.Time(float64(d) / n.slow)
}

// Inject occupies the node's TX port for the injection time of size bytes.
// It returns after the message has fully left the sender.
func (n *Node) Inject(p *sim.Proc, size int64) {
	t0 := n.InjectThen(p, size)
	p.Park()
	n.InjectDone(t0, size)
}

// InjectThen is Inject's step form: it queues the injection, and p resumes
// once the message has fully left the sender. The resumed step must call
// InjectDone with the returned start time.
func (n *Node) InjectThen(p *sim.Proc, size int64) (t0 sim.Time) {
	cfg := n.fabric.cfg
	d := sim.Jitter(n.fabric.k.Rand(), cfg.InjJitter, cfg.InjRate.DurationFor(size))
	if n.metricsOn() {
		t0 = n.fabric.k.Now()
	}
	n.inj.ServeThen(p, n.stretch(d))
	return t0
}

// InjectDone accounts an injection that InjectThen started at t0.
func (n *Node) InjectDone(t0 sim.Time, size int64) {
	if n.metricsOn() {
		n.mInjNs.Observe(int64(n.fabric.k.Now() - t0))
		n.mTx.Add(size)
	}
	n.inj.Bytes += size
}

// Eject occupies the node's RX port for the ejection time of size bytes.
func (n *Node) Eject(p *sim.Proc, size int64) {
	t0 := n.EjectThen(p, size)
	p.Park()
	n.EjectDone(t0, size)
}

// EjectThen is Eject's step form: p resumes once the message has been
// received, and the resumed step must call EjectDone with the returned
// start time.
func (n *Node) EjectThen(p *sim.Proc, size int64) (t0 sim.Time) {
	d := n.stretch(n.fabric.cfg.EjeRate.DurationFor(size))
	if n.metricsOn() {
		t0 = n.fabric.k.Now()
	}
	n.eje.ServeThen(p, d)
	return t0
}

// EjectDone accounts an ejection that EjectThen started at t0.
func (n *Node) EjectDone(t0 sim.Time, size int64) {
	if n.metricsOn() {
		n.mEjeNs.Observe(int64(n.fabric.k.Now() - t0))
		n.mRx.Add(size)
	}
	n.eje.Bytes += size
}

// LocalCopy charges the shared intra-node memory path for size bytes; used
// for messages between ranks on the same node and for buffer packing.
func (n *Node) LocalCopy(p *sim.Proc, size int64) {
	n.LocalCopyThen(p, size)
	p.Park()
	n.LocalCopyDone(size)
}

// LocalCopyThen is LocalCopy's step form: p resumes once the copy is done,
// and the resumed step must call LocalCopyDone.
func (n *Node) LocalCopyThen(p *sim.Proc, size int64) {
	cfg := n.fabric.cfg
	n.mem.ServeThen(p, cfg.MemLatency+cfg.MemRate.DurationFor(size))
}

// LocalCopyDone accounts a copy that LocalCopyThen started.
func (n *Node) LocalCopyDone(size int64) {
	n.mem.Bytes += size
	if n.metricsOn() {
		n.mCopy.Add(size)
	}
}

// Transfer moves size bytes from n to dst, blocking p for the full transfer:
// injection, wire latency and ejection (or a local copy when dst == n).
func (n *Node) Transfer(p *sim.Proc, dst *Node, size int64) {
	if dst == n {
		n.LocalCopy(p, size)
		return
	}
	n.Inject(p, size)
	p.Sleep(n.fabric.cfg.Latency)
	dst.Eject(p, size)
}

// TxBytes reports the bytes injected by this node so far.
func (n *Node) TxBytes() int64 { return n.inj.Bytes }

// RxBytes reports the bytes ejected to this node so far.
func (n *Node) RxBytes() int64 { return n.eje.Bytes }
