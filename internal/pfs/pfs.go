// Package pfs models the global parallel file system (BeeGFS on the DEEP-ER
// cluster, §IV-A): a metadata server plus a set of data targets over which
// file contents are striped. Each target is a FIFO queueing station with a
// per-RPC latency, a stream rate, and log-normal service-time jitter that
// reproduces the I/O-server load imbalance responsible for the paper's
// slowest-writer synchronisation costs.
//
// Clients (one per compute node) push data in bounded-size RPCs through a
// per-client throughput cap — modelling the file-system client stack — and
// through the node's NIC, so file-system traffic and MPI traffic contend
// for the same injection bandwidth, exactly as on the real machine.
package pfs

import (
	"errors"
	"fmt"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// Errors returned by the file system.
var (
	ErrNotFound    = errors.New("pfs: file not found")
	ErrExists      = errors.New("pfs: file exists")
	ErrTargetDown  = errors.New("pfs: storage target unreachable")
	ErrPartitioned = errors.New("pfs: client partitioned from storage fabric")
)

// Config describes a parallel file system instance.
type Config struct {
	Targets            int      // number of data targets (OSTs)
	TargetRate         sim.Rate // per-target stream rate
	TargetLatency      sim.Time // per-RPC service latency at a target
	TargetJitter       sim.Dist // per-RPC jitter (load imbalance)
	ClientRate         sim.Rate // per-client throughput cap
	ClientRPCLatency   sim.Time // client-side per-RPC overhead
	MaxRPC             int64    // maximum payload bytes per RPC
	MetaLatency        sim.Time // metadata operation latency
	DefaultStripeSize  int64    // stripe unit for new files
	DefaultStripeCount int      // stripe width for new files
	LockGranularity    int64    // >0: writes take whole-block write locks
}

// DefaultConfig approximates the paper's BeeGFS deployment: four data
// targets of ~500 MB/s (≈2 GB/s aggregate), 4 MB stripes, stripe count 4.
func DefaultConfig() Config {
	return Config{
		Targets:            4,
		TargetRate:         640 * sim.MBps,
		TargetLatency:      600 * sim.Microsecond,
		TargetJitter:       sim.UnitLogNormal(0.45),
		ClientRate:         400 * sim.MBps,
		ClientRPCLatency:   1200 * sim.Microsecond,
		MaxRPC:             2 << 20, // 2 MB
		MetaLatency:        400 * sim.Microsecond,
		DefaultStripeSize:  4 << 20,
		DefaultStripeCount: 4,
	}
}

// Striping captures a file's layout.
type Striping struct {
	StripeSize  int64 // bytes per stripe unit
	StripeCount int   // number of targets the file spans
	FirstTarget int   // index of the target holding stripe 0
}

// System is one parallel file system instance.
type System struct {
	k       *sim.Kernel
	cfg     Config
	targets []*sim.Station
	tstate  []targetState
	meta    *sim.Station
	files   map[string]*FileMeta
	factory store.Factory
	Locks   *LockManager
	nextTgt int

	// Per-target metric handles, registered lazily.
	mTgtNs    []*metrics.Histogram
	mTgtBytes []*metrics.Counter
	mTimeouts *metrics.Counter
	mMetaOps  *metrics.Counter
}

// targetMetrics resolves (and caches) the handles for target i, returning
// (nil, nil) when metrics are disabled.
func (s *System) targetMetrics(i int) (*metrics.Histogram, *metrics.Counter) {
	m := s.k.Metrics()
	if m == nil {
		return nil, nil
	}
	if s.mTgtNs == nil {
		s.mTgtNs = make([]*metrics.Histogram, len(s.targets))
		s.mTgtBytes = make([]*metrics.Counter, len(s.targets))
	}
	if s.mTgtNs[i] == nil {
		layer := metrics.L(metrics.KeyLayer, "pfs")
		tgt := metrics.L("target", fmt.Sprintf("tgt%d", i))
		s.mTgtNs[i] = m.Histogram("pfs_target_ns", layer, tgt)
		s.mTgtBytes[i] = m.Counter("pfs_target_bytes_total", layer, tgt)
	}
	return s.mTgtNs[i], s.mTgtBytes[i]
}

// metaServe charges one metadata round trip and counts it.
func (s *System) metaServe(p *sim.Proc) {
	s.meta.Serve(p, s.cfg.MetaLatency)
	if m := s.k.Metrics(); m != nil {
		if s.mMetaOps == nil {
			s.mMetaOps = m.Counter("pfs_meta_ops_total", metrics.L(metrics.KeyLayer, "pfs"))
		}
		s.mMetaOps.Inc()
	}
}

// targetState is the injected health of one data target.
type targetState struct {
	down  bool
	speed float64 // service speed factor in (0, 1]; 1 = nominal
}

// New creates a file system. factory selects the payload backend for newly
// created files.
func New(k *sim.Kernel, cfg Config, factory store.Factory) *System {
	if cfg.Targets < 1 {
		panic("pfs: need at least one target")
	}
	if cfg.MaxRPC <= 0 {
		panic("pfs: MaxRPC must be positive")
	}
	s := &System{
		k:       k,
		cfg:     cfg,
		meta:    sim.NewStation(k, "pfs.meta", "pfs.meta", 1),
		files:   make(map[string]*FileMeta),
		factory: factory,
		Locks:   NewLockManager(k),
	}
	for i := 0; i < cfg.Targets; i++ {
		s.targets = append(s.targets, sim.NewStation(k, "pfs.tgt", fmt.Sprintf("pfs.tgt%d", i), 1))
		s.tstate = append(s.tstate, targetState{speed: 1})
	}
	return s
}

// SetTargetDown marks target i unreachable (or restores it): RPCs touching
// the target fail with ErrTargetDown after the RPC latency elapses, like a
// timed-out storage server.
func (s *System) SetTargetDown(i int, down bool) {
	s.tstate[i].down = down
}

// TargetDown reports whether target i is marked unreachable.
func (s *System) TargetDown(i int) bool { return s.tstate[i].down }

// SetTargetSpeed scales target i's service rate to factor (in (0, 1]) of
// nominal, modelling a transiently overloaded or rebuilding storage server.
func (s *System) SetTargetSpeed(i int, factor float64) {
	if factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("pfs: target speed factor %v outside (0, 1]", factor))
	}
	s.tstate[i].speed = factor
}

// TargetSpeed returns target i's current service speed factor.
func (s *System) TargetSpeed(i int) float64 { return s.tstate[i].speed }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// TotalBytesWritten returns the bytes stored across all targets.
func (s *System) TotalBytesWritten() int64 {
	var n int64
	for _, t := range s.targets {
		n += t.Bytes
	}
	return n
}

// TargetUtilization returns each data target's busy fraction over the
// given horizon.
func (s *System) TargetUtilization(horizon sim.Time) []float64 {
	out := make([]float64, len(s.targets))
	for i, t := range s.targets {
		out[i] = t.Utilization(horizon)
	}
	return out
}

// TargetBytes returns each data target's stored byte count.
func (s *System) TargetBytes() []int64 {
	out := make([]int64, len(s.targets))
	for i, t := range s.targets {
		out[i] = t.Bytes
	}
	return out
}

// MetaOps returns the number of metadata operations served.
func (s *System) MetaOps() int64 { return s.meta.Served }

// Lookup returns the metadata of an existing file, or nil.
func (s *System) Lookup(name string) *FileMeta {
	return s.files[name]
}

// FileMeta is the per-file state held by the metadata server.
type FileMeta struct {
	name     string
	striping Striping
	data     store.Store
}

// Size returns the current file size.
func (f *FileMeta) Size() int64 { return f.data.Size() }

// Store exposes the payload backend for verification in tests.
func (f *FileMeta) Store() store.Store { return f.data }

// Client is a compute node's view of the file system.
type Client struct {
	sys  *System
	node *netsim.Node
	cap  *sim.Station // per-client throughput cap

	// Statistics.
	BytesWritten int64
	BytesRead    int64
}

// NewClient creates the client for one compute node.
func (s *System) NewClient(node *netsim.Node) *Client {
	return &Client{
		sys:  s,
		node: node,
		cap:  sim.NewStation(s.k, "pfs.client", fmt.Sprintf("pfs.client.n%d", node.ID()), 1),
	}
}

// Open opens (optionally creating) a file with the given striping; a zero
// Striping takes the system defaults. The metadata server is charged.
func (c *Client) Open(p *sim.Proc, name string, create bool, striping Striping) (*Handle, error) {
	s := c.sys
	s.metaServe(p)
	f, ok := s.files[name]
	if !ok {
		if !create {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		if striping.StripeSize <= 0 {
			striping.StripeSize = s.cfg.DefaultStripeSize
		}
		if striping.StripeCount <= 0 {
			striping.StripeCount = s.cfg.DefaultStripeCount
		}
		if striping.StripeCount > s.cfg.Targets {
			striping.StripeCount = s.cfg.Targets
		}
		striping.FirstTarget = s.nextTgt % s.cfg.Targets
		s.nextTgt++
		f = &FileMeta{name: name, striping: striping, data: s.factory()}
		s.files[name] = f
	}
	return &Handle{client: c, meta: f}, nil
}

// Unlink removes a file.
func (c *Client) Unlink(p *sim.Proc, name string) error {
	s := c.sys
	s.metaServe(p)
	if _, ok := s.files[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(s.files, name)
	return nil
}

// Handle is an open file on a particular client.
type Handle struct {
	client *Client
	meta   *FileMeta
}

// Meta returns the file metadata.
func (h *Handle) Meta() *FileMeta { return h.meta }

// Close releases the handle (one metadata round trip).
func (h *Handle) Close(p *sim.Proc) {
	s := h.client.sys
	s.metaServe(p)
}

// targetFor returns the target index storing the stripe containing off.
func (h *Handle) targetFor(off int64) int {
	st := h.meta.striping
	stripe := off / st.StripeSize
	return (st.FirstTarget + int(stripe%int64(st.StripeCount))) % h.client.sys.cfg.Targets
}

// streams returns how many targets [off, off+size) touches, one stream
// each. StripeCount never exceeds the target count, so the stripes of any
// StripeCount consecutive stripe indices live on distinct targets: the
// range's targets in order of first appearance are those of its stripes
// first, first+1, ..., and stream i serves stripes first+i, first+i+StripeCount, ...
func (h *Handle) streams(off, size int64) int {
	if size <= 0 {
		return 0
	}
	st := h.meta.striping
	stripes := (off+size-1)/st.StripeSize - off/st.StripeSize + 1
	return int(min(stripes, int64(st.StripeCount)))
}

// rpcCursor walks the RPCs of stream i of [off, off+size) in offset order
// (see streams): every piece of the stream's stripes inside the range,
// split into RPCs of at most MaxRPC bytes.
type rpcCursor struct {
	h        *Handle
	tgt      int   // the stream's target
	stripe   int64 // stripe index of the next RPC
	cur, end int64 // next offset, end of the range
}

// cursor starts the walk of stream i of [off, off+size).
func (h *Handle) cursor(i int, off, size int64) rpcCursor {
	ss := h.meta.striping.StripeSize
	stripe := off/ss + int64(i)
	return rpcCursor{h: h, tgt: h.targetFor(off + int64(i)*ss), stripe: stripe,
		cur: max(off, stripe*ss), end: off + size}
}

// next returns the stream's next RPC, or false when the walk is over.
func (c *rpcCursor) next() (extent.Extent, bool) {
	st := c.h.meta.striping
	for c.stripe*st.StripeSize < c.end {
		if chunkEnd := min(c.end, (c.stripe+1)*st.StripeSize); c.cur < chunkEnd {
			e := extent.Extent{Off: c.cur, Len: min(c.h.client.sys.cfg.MaxRPC, chunkEnd-c.cur)}
			c.cur = e.End()
			return e, true
		}
		c.stripe += int64(st.StripeCount)
		c.cur = c.stripe * st.StripeSize
	}
	return extent.Extent{}, false
}

// WriteAt writes size bytes at off from src, which may be nil for
// metadata-only payloads. The client streams to each involved target in
// parallel while the per-client cap and the node NIC serialize the client
// side, modelling a pipelined file-system client. Blocks p until all data
// is stored. A down target fails the whole write with ErrTargetDown; no
// payload is committed in that case.
func (h *Handle) WriteAt(p *sim.Proc, src store.Source, off, size int64) error {
	var op Op
	h.StartWrite(&op, src, off, size)
	for op.Step(p) {
		p.Park()
	}
	return op.Err()
}

// ReadAt reads size bytes at off into dst (metadata-only when dst is nil).
func (h *Handle) ReadAt(p *sim.Proc, dst store.Sink, off, size int64) error {
	var op Op
	h.StartRead(&op, dst, off, size)
	for op.Step(p) {
		p.Park()
	}
	return op.Err()
}

// Op is a WriteAt or ReadAt in flight as steps of the process that started
// it: Step does the op's work up to its next wait and reports whether the
// process must wait for the resume it arranged. Once Step reports false
// the op is over and Err holds its result. A range on one target streams
// on the calling process; a range over several streams to each target from
// a step process of its own while the caller waits for the last. An Op is
// reusable once it is over.
type Op struct {
	h     *Handle
	src   store.Source // payload written
	dst   store.Sink   // payload read into
	off   int64
	size  int64
	write bool
	stage opStage
	lock  *Lock
	one   stream // the stream of a one-target range
	join  *join  // the streams of a multi-target range; kept for reuse
	err   error
}

// join is the streams of a multi-target op, each on a process of its own,
// and what they report back. Only the streams point to it, so an Op that
// streams inline stays where its caller put it.
type join struct {
	streams []stream
	left    int // streams still running
	caller  *sim.Proc
	err     error
	errAt   int // the stream err came from: the first failing one in stripe order wins
}

type opStage int8

const (
	opStart  opStage = iota
	opLocked         // waiting for the write lock
	opStream         // streaming on the calling process
	opJoin           // waiting for the stream processes
	opDone
)

// StartWrite sets op up as WriteAt's step form.
func (h *Handle) StartWrite(op *Op, src store.Source, off, size int64) {
	op.start(h, off, size, true)
	op.src = src
}

// StartRead sets op up as ReadAt's step form.
func (h *Handle) StartRead(op *Op, dst store.Sink, off, size int64) {
	op.start(h, off, size, false)
	op.dst = dst
}

// start resets op for a new transfer, field by field: Step sets up the
// streams, and the join is kept for reuse.
func (op *Op) start(h *Handle, off, size int64, write bool) {
	op.h, op.src, op.dst, op.off, op.size, op.write = h, nil, nil, off, size, write
	op.stage, op.lock, op.err = opStart, nil, nil
}

// Err returns the result of an op that is over. On error the payload is
// not committed; the first failing stream (in stripe order) determines it,
// keeping runs deterministic.
func (op *Op) Err() error { return op.err }

// Step runs the op up to its next wait (see Op).
func (op *Op) Step(p *sim.Proc) bool {
	h := op.h
	s := h.client.sys
	switch op.stage {
	case opStart:
		if op.size == 0 {
			op.stage = opDone
			return false
		}
		if g := s.cfg.LockGranularity; g > 0 && op.write {
			lo := op.off / g * g
			hi := (op.off + op.size + g - 1) / g * g
			var wait bool
			op.lock, wait = s.Locks.acquireThen(p, h.meta.name, WriteLock, extent.Extent{Off: lo, Len: hi - lo})
			if wait {
				op.stage = opLocked
				p.ParkThen()
				return true
			}
		}
		return op.stream(p)
	case opLocked:
		s.Locks.granted(op.lock, p.Now())
		return op.stream(p)
	case opStream:
		if op.one.advance(p) {
			return true
		}
		op.err = op.one.err
	case opJoin:
		op.err = op.join.err
	default:
		return false
	}
	op.finish()
	return false
}

// stream starts the op's streams: inline for one target, else one step
// process per target, joined by the last to end.
func (op *Op) stream(p *sim.Proc) bool {
	h := op.h
	n := h.streams(op.off, op.size)
	if n == 1 {
		s := &op.one
		s.write, s.cur, s.stage, s.err = op.write, h.cursor(0, op.off, op.size), rpcNext, nil
		op.stage = opStream
		return op.Step(p)
	}
	j := op.join
	if j == nil || cap(j.streams) < n {
		j = &join{streams: make([]stream, n)}
		op.join = j
	}
	*j = join{streams: j.streams[:n], left: n, caller: p}
	for i := range j.streams {
		s := &j.streams[i]
		*s = stream{join: j, i: i, write: op.write, cur: h.cursor(i, op.off, op.size)}
		// A fresh Proc: the streams slab is refilled by the op's next call.
		h.client.sys.k.SpawnStep(new(sim.Proc), s)
	}
	op.stage = opJoin
	p.ParkThen()
	return true
}

// finish commits a successful write's payload or copies a read's out,
// releases the write lock and counts the bytes.
func (op *Op) finish() {
	h := op.h
	op.stage = opDone
	if op.write && op.err == nil {
		h.meta.data.WriteAt(op.src, op.off, op.size)
	}
	if op.lock != nil {
		h.client.sys.Locks.Unlock(op.lock)
		op.lock = nil
	}
	switch {
	case op.err != nil:
	case op.write:
		h.client.BytesWritten += op.size
	default:
		h.meta.data.ReadAt(op.dst, op.off, op.size)
		h.client.BytesRead += op.size
	}
}

// stream is one pipelined RPC stream of an op. Each RPC goes through the
// client stack (the shared cap) and, writing, the NIC, then the fabric hop
// to its target and the target's service, and, reading, back through the
// NIC. A partitioned client burns the client stack latency plus the target
// timeout and fails with ErrPartitioned, which (unlike ErrTargetDown)
// heals when the partition does, so callers may retry without consuming
// their fault budget. An RPC to a down target burns the RPC latency
// waiting for the timeout and aborts the stream; a slowed target stretches
// its service time.
type stream struct {
	join  *join // the join a stream process reports to; nil for an inline stream
	i     int
	write bool
	cur   rpcCursor
	rpc   extent.Extent // the RPC in flight
	stage rpcStage
	t0    sim.Time // start of the NIC or target service, for its histogram
	err   error
}

type rpcStage int8

const (
	rpcNext        rpcStage = iota
	rpcPartitioned          // burning the timeout of a partitioned client
	rpcCap                  // in the client stack
	rpcInject               // in the NIC's injection port
	rpcHop                  // on the fabric hop to the target
	rpcTimeout              // waiting out a down target's timeout
	rpcTarget               // in the target's service
	rpcEject                // in the NIC's ejection port
)

// Step is the step of a stream's own process: it reports to its join when
// the stream ends, and the last stream to end wakes the op's caller, which
// finishes the op.
func (st *stream) Step(p *sim.Proc) {
	if st.advance(p) {
		return
	}
	j := st.join
	if st.err != nil && (j.err == nil || st.i < j.errAt) {
		j.err, j.errAt = st.err, st.i
	}
	if j.left--; j.left == 0 {
		st.cur.h.client.sys.k.Wake(j.caller)
	}
}

// Name names a stream's process by node and target.
func (st *stream) Name() string {
	return fmt.Sprintf("pfs.stream.n%d.t%d", st.cur.h.client.node.ID(), st.cur.tgt)
}

// advance runs the stream up to its next wait and reports whether there is
// one; false means the stream is over, with err set when it failed.
func (st *stream) advance(p *sim.Proc) bool {
	c := st.cur.h.client
	s := c.sys
	n := st.rpc.Len
	for {
		switch st.stage {
		case rpcNext:
			var ok bool
			if st.rpc, ok = st.cur.next(); !ok {
				return false
			}
			n = st.rpc.Len
			if c.node.Isolated() {
				st.stage = rpcPartitioned
				p.Then(s.cfg.ClientRPCLatency + s.cfg.TargetLatency)
				return true
			}
			st.stage = rpcCap
			c.cap.ServeThen(p, s.cfg.ClientRPCLatency+s.cfg.ClientRate.DurationFor(n))
			return true
		case rpcPartitioned:
			st.err = fmt.Errorf("%w: node %d", ErrPartitioned, c.node.ID())
			return false
		case rpcCap:
			c.cap.Bytes += n
			if st.write {
				st.stage = rpcInject
				st.t0 = c.node.InjectThen(p, n)
				return true
			}
			st.stage = rpcHop
			p.Then(2 * sim.Microsecond) // fabric hop to storage
			return true
		case rpcInject:
			c.node.InjectDone(st.t0, n)
			st.stage = rpcHop
			p.Then(2 * sim.Microsecond) // fabric hop to storage
			return true
		case rpcHop:
			tgt := st.cur.tgt
			ts := s.tstate[tgt]
			if ts.down {
				st.stage = rpcTimeout
				p.Then(s.cfg.TargetLatency) // RPC timeout
				return true
			}
			d := s.cfg.TargetLatency + s.cfg.TargetRate.DurationFor(n)
			d = sim.Jitter(s.k.Rand(), s.cfg.TargetJitter, d)
			if ts.speed != 1 {
				d = sim.Time(float64(d) / ts.speed)
			}
			if tgtNs, _ := s.targetMetrics(tgt); tgtNs != nil {
				st.t0 = p.Now()
			}
			st.stage = rpcTarget
			s.targets[tgt].ServeThen(p, d)
			return true
		case rpcTimeout:
			tgt := st.cur.tgt
			if tr := s.k.Tracer(); tr != nil {
				tr.Instant(s.targets[tgt].TraceTrack(tr), "pfs", "rpc_timeout",
					int64(p.Now()), trace.I("bytes", n))
			}
			if m := s.k.Metrics(); m != nil {
				if s.mTimeouts == nil {
					s.mTimeouts = m.Counter("pfs_rpc_timeouts_total", metrics.L(metrics.KeyLayer, "pfs"))
				}
				s.mTimeouts.Inc()
			}
			st.err = fmt.Errorf("%w: tgt%d", ErrTargetDown, tgt)
			return false
		case rpcTarget:
			tgt := st.cur.tgt
			if tgtNs, tgtBytes := s.targetMetrics(tgt); tgtNs != nil {
				tgtNs.Observe(int64(p.Now() - st.t0))
				tgtBytes.Add(n)
			}
			s.targets[tgt].Bytes += n
			if !st.write {
				st.stage = rpcEject
				st.t0 = c.node.EjectThen(p, n)
				return true
			}
			st.stage = rpcNext
		case rpcEject:
			c.node.EjectDone(st.t0, n)
			st.stage = rpcNext
		}
	}
}

// Sync charges a metadata round trip (data is written through in this
// model, so sync has no additional data cost).
func (h *Handle) Sync(p *sim.Proc) {
	s := h.client.sys
	s.metaServe(p)
}

// Truncate sets the file size (one metadata round trip).
func (h *Handle) Truncate(p *sim.Proc, size int64) {
	s := h.client.sys
	s.metaServe(p)
	h.meta.data.Truncate(size)
}
