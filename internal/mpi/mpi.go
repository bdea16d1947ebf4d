// Package mpi implements the message-passing substrate the reproduction
// runs on: a World of ranks mapped onto simulated compute nodes, MPI-style
// point-to-point communication with (source, tag) matching and nonblocking
// requests, generalized requests (MPI_Grequest), Info objects for hints,
// and the collectives used by ROMIO's extended two-phase algorithm.
//
// Ranks are simulation processes. Message transfers contend for the node
// NICs modelled by package netsim, so 8 ranks per node share injection
// bandwidth exactly as in the paper's testbed (512 processes on 64 nodes).
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// World is the set of all ranks (MPI_COMM_WORLD).
type World struct {
	k        *sim.Kernel
	fabric   *netsim.Fabric
	ranks    []*Rank
	perNode  int
	comm     *Comm
	interned map[internKey][]*Comm // shared communicators; see intern

	pool  *bufpool.Pool // the cluster's byte pool (see SetPool)
	recvs []postedRecv  // receive records not yet handed out (see newRecv)

	rel         *relState    // reliable-delivery layer, nil when disabled
	collTimeout sim.Time     // collective timeout; 0 = wait forever
	heldColl    []*collState // collectives held open by a partition
	onChangeReg bool         // partition observer registered
	dead        []bool       // ranks removed by Kill, indexed by rank id
	kills       int          // number of ranks killed so far

	// Per-rank collective accounting: calls entered vs calls completed.
	// A live rank with started != done after the run is wedged inside a
	// collective — the chaos harness's no_stuck_collective oracle.
	collStarted []int64
	collDone    []int64

	// Per-message metric handles, registered lazily on first use (the
	// registry may be attached to the kernel after the world is built).
	// Resolving a handle through the registry canonicalizes the label set
	// on every call; caching keeps the per-message cost at one branch.
	mreg      bool
	mP2PMsgs  *metrics.Counter
	mP2PBytes *metrics.Counter
	mP2PNs    *metrics.Histogram
	collM     map[string]collMetrics // per-op collective metric handles
}

// metricsOn resolves (and caches) the world's per-message metric handles;
// it returns false when metrics are disabled.
func (w *World) metricsOn() bool {
	m := w.k.Metrics()
	if m == nil {
		return false
	}
	if !w.mreg {
		layer := metrics.L(metrics.KeyLayer, "mpi")
		w.mP2PMsgs = m.Counter("mpi_p2p_msgs_total", layer)
		w.mP2PBytes = m.Counter("mpi_p2p_bytes_total", layer)
		w.mP2PNs = m.Histogram("mpi_p2p_ns", layer)
		w.mreg = true
	}
	return true
}

// NewWorld creates ranksPerNode ranks on every node of the fabric, in
// node-major order (ranks 0..perNode-1 on node 0, and so on), matching the
// block process placement used in the paper's experiments.
func NewWorld(k *sim.Kernel, fabric *netsim.Fabric, ranksPerNode int) *World {
	return NewWorldOn(k, fabric, ranksPerNode, fabric.Nodes())
}

// NewWorldOn places ranks on the first computeNodes nodes only, leaving
// the remaining fabric endpoints for dedicated servers (e.g. burst-buffer
// proxies).
func NewWorldOn(k *sim.Kernel, fabric *netsim.Fabric, ranksPerNode, computeNodes int) *World {
	if ranksPerNode < 1 {
		panic("mpi: need at least one rank per node")
	}
	if computeNodes < 1 || computeNodes > fabric.Nodes() {
		panic("mpi: compute node count out of range")
	}
	w := &World{
		k: k, fabric: fabric, perNode: ranksPerNode,
		interned: make(map[internKey][]*Comm),
	}
	n := computeNodes * ranksPerNode
	w.dead = make([]bool, n)
	for i := 0; i < n; i++ {
		w.ranks = append(w.ranks, &Rank{
			w:    w,
			id:   i,
			node: fabric.Node(i / ranksPerNode),
		})
	}
	w.comm = newComm(w, w.ranks)
	w.collStarted = make([]int64, n)
	w.collDone = make([]int64, n)
	return w
}

// CollBalance returns how many collective calls rank id entered and how
// many it completed (normally or with a surfaced error). The two differ
// only while the rank is inside a collective — or, after the run, when it
// is wedged in one forever.
func (w *World) CollBalance(id int) (started, done int64) {
	return w.collStarted[id], w.collDone[id]
}

// SkewCollAccounting artificially unbalances rank id's collective
// accounting, as if the rank had entered a collective and never returned.
// The chaos harness uses it to regression-test its no_stuck_collective
// oracle; real code has no business calling it.
func (w *World) SkewCollAccounting(id int) { w.collStarted[id]++ }

// Kernel returns the simulation kernel.
func (w *World) Kernel() *sim.Kernel { return w.k }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i's handle (for inspection; MPI calls must run on the
// rank's own process).
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Comm returns the world communicator.
func (w *World) Comm() *Comm { return w.comm }

// Run spawns every rank executing body and drives the simulation to
// completion. It is the moral equivalent of mpirun.
func (w *World) Run(body func(r *Rank)) error {
	for _, r := range w.ranks {
		r := r
		w.k.Spawn(fmt.Sprintf("rank%d", r.id), func(p *sim.Proc) {
			// A killed rank unwinds via the errKilled panic sentinel; its
			// process ends here as if the node's OS reaped it.
			defer func() {
				if rec := recover(); rec != nil && rec != errKilled {
					panic(rec)
				}
			}()
			r.proc = p
			if tr := w.k.Tracer(); tr != nil {
				p.SetTraceTrack(r.TraceTrack(tr))
			}
			body(r)
		})
	}
	return w.k.Run()
}

// errKilled unwinds a killed rank's process from inside an MPI call. It is
// recovered by the Run wrapper, never seen by applications.
var errKilled = errors.New("mpi: rank killed")

// Kill removes rank id from the world, modelling its process dying with the
// node: a rank parked inside an MPI call (Wait or a collective) is unwound
// immediately; a rank busy elsewhere dies at its next MPI call. Messages
// addressed to a dead rank are discarded. Killing a dead rank is a no-op.
func (w *World) Kill(id int) {
	if w.dead[id] {
		return
	}
	w.dead[id] = true
	w.kills++
	r := w.ranks[id]
	if r.proc == nil {
		return // never started
	}
	switch {
	case r.waitReq != nil:
		// Detach from the request so a later completion does not wake a
		// corpse, then unwind the rank.
		r.waitReq.waiter = nil
		r.waitReq = nil
		w.k.Wake(r.proc)
	case r.collSt != nil:
		// Drop out of the rendezvous wait list; the rank's contribution
		// (already recorded) stands, so survivors still complete.
		st := r.collSt
		r.collSt = nil
		for i, wr := range st.waiters {
			if wr == r {
				st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
				break
			}
		}
		w.k.Wake(r.proc)
	}
	// Ranks parked elsewhere (NIC/device stations, sleeps) finish that
	// operation and die at the next MPI checkpoint.
}

// KillNode kills every rank hosted on the given node.
func (w *World) KillNode(node int) {
	for _, r := range w.ranks {
		if r.node.ID() == node {
			w.Kill(r.id)
		}
	}
}

// Alive reports whether rank id has not been killed.
func (w *World) Alive(id int) bool { return !w.dead[id] }

// checkKilled is the per-call death checkpoint: a dead rank entering (or
// resuming inside) an MPI call unwinds instead of proceeding.
func (r *Rank) checkKilled() {
	if r.w.dead[r.id] {
		panic(errKilled)
	}
}

// SetCollTimeout bounds how long a collective waits for its last arrival
// (and for any network partition cutting the communicator to heal) before
// failing all participants with a *CollTimeoutError. d = 0 (the default)
// restores wait-forever semantics. The timeout is armed per collective via
// a cancellable kernel timer, so on the fault-free path — where every
// collective completes and stops its timer — virtual time, event counts
// and the golden trace are byte-identical to a world without timeouts.
func (w *World) SetCollTimeout(d sim.Time) {
	w.collTimeout = d
	if d > 0 && !w.onChangeReg {
		w.fabric.OnChange(w.recheckHeld)
		w.onChangeReg = true
	}
}

// CollTimeout returns the configured collective timeout (0 = disabled).
func (w *World) CollTimeout() sim.Time { return w.collTimeout }

// Rank is one MPI process.
type Rank struct {
	w     *World
	id    int
	node  *netsim.Node
	proc  *sim.Proc
	mbox  mailbox
	ttk   trace.TrackID
	ttReg bool

	// Tracked park sites, so Kill can unwind a rank blocked inside an MPI
	// call without double-resuming processes parked elsewhere.
	waitReq *Request   // non-nil while parked in Wait
	collSt  *collState // non-nil while parked in a collective rendezvous
}

// TraceTrack lazily registers and returns this rank's trace timeline.
func (r *Rank) TraceTrack(tr *trace.Tracer) trace.TrackID {
	if tr == nil {
		return trace.NoTrack
	}
	if !r.ttReg {
		r.ttk = tr.Track(trace.GroupRanks, fmt.Sprintf("rank %d", r.id))
		r.ttReg = true
	}
	return r.ttk
}

// ID returns the world rank number.
func (r *Rank) ID() int { return r.id }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Node returns the compute node hosting this rank.
func (r *Rank) Node() *netsim.Node { return r.node }

// Proc returns the rank's simulation process. It is only valid inside the
// body function passed to World.Run.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// Compute blocks the rank for d of virtual time, emulating a computation
// phase (the benchmarks' --compute-delay).
func (r *Rank) Compute(d sim.Time) { r.proc.Sleep(d) }

// Info is an MPI_Info object: a string-keyed hint dictionary.
type Info map[string]string

// Get returns the hint value and whether it was set.
func (i Info) Get(key string) (string, bool) {
	if i == nil {
		return "", false
	}
	v, ok := i[key]
	return v, ok
}

// Set stores a hint.
func (i Info) Set(key, value string) { i[key] = value }
