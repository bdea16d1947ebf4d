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
		meta:    sim.NewStation(k, "pfs.meta", 1),
		files:   make(map[string]*FileMeta),
		factory: factory,
		Locks:   NewLockManager(k),
	}
	for i := 0; i < cfg.Targets; i++ {
		s.targets = append(s.targets, sim.NewStation(k, fmt.Sprintf("pfs.tgt%d", i), 1))
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

// Name returns the file name.
func (f *FileMeta) Name() string { return f.name }

// Striping returns the file layout.
func (f *FileMeta) Striping() Striping { return f.striping }

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
		cap:  sim.NewStation(s.k, fmt.Sprintf("pfs.client.n%d", node.ID()), 1),
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

// walkStream calls rpc, in offset order, for each RPC of stream i of
// [off, off+size) (see streams): every piece of the stream's stripes inside
// the range, split into RPCs of at most MaxRPC bytes. It stops at the
// first error rpc returns and returns it.
func (h *Handle) walkStream(i int, off, size int64, rpc func(target int, ext extent.Extent) error) error {
	st := h.meta.striping
	end := off + size
	tgt := h.targetFor(off + int64(i)*st.StripeSize)
	for stripe := off/st.StripeSize + int64(i); stripe*st.StripeSize < end; stripe += int64(st.StripeCount) {
		cur := max(off, stripe*st.StripeSize)
		chunkEnd := min(end, (stripe+1)*st.StripeSize)
		for cur < chunkEnd {
			n := min(h.client.sys.cfg.MaxRPC, chunkEnd-cur)
			if err := rpc(tgt, extent.Extent{Off: cur, Len: n}); err != nil {
				return err
			}
			cur += n
		}
	}
	return nil
}

// WriteAt writes size bytes at off. data may be nil for metadata-only
// payloads. The client streams to each involved target in parallel while
// the per-client cap and the node NIC serialize the client side, modelling
// a pipelined file-system client. Blocks p until all data is stored. A
// down target fails the whole write with ErrTargetDown; no payload is
// committed in that case.
func (h *Handle) WriteAt(p *sim.Proc, data []byte, off, size int64) error {
	if size == 0 {
		return nil
	}
	s := h.client.sys
	var lock *Lock
	if g := s.cfg.LockGranularity; g > 0 {
		lo := off / g * g
		hi := (off + size + g - 1) / g * g
		lock = s.Locks.Acquire(p, h.meta.name, WriteLock, extent.Extent{Off: lo, Len: hi - lo})
	}
	err := h.transfer(p, data, off, size, true)
	if lock != nil {
		s.Locks.Unlock(lock)
	}
	if err != nil {
		return err
	}
	h.client.BytesWritten += size
	return nil
}

// ReadAt reads into buf (or size bytes metadata-only when buf is nil).
func (h *Handle) ReadAt(p *sim.Proc, buf []byte, off, size int64) error {
	if buf != nil {
		size = int64(len(buf))
	}
	if size == 0 {
		return nil
	}
	if err := h.transfer(p, nil, off, size, false); err != nil {
		return err
	}
	if buf != nil {
		h.meta.data.ReadAt(buf, off)
	}
	h.client.BytesRead += size
	return nil
}

// transfer moves the byte range between client and targets, blocking p.
// On error the payload is not committed; the first failing target (in
// stripe order) determines the returned error, keeping runs deterministic.
func (h *Handle) transfer(p *sim.Proc, data []byte, off, size int64, isWrite bool) error {
	k := h.client.sys.k
	// One pipelined stream per target.
	n := h.streams(off, size)
	if n == 1 {
		// Single-target fast path: stream inline on the calling process.
		if err := h.stream(p, 0, off, size, isWrite); err != nil {
			return err
		}
		if isWrite {
			h.meta.data.WriteAt(data, off, size)
		}
		return nil
	}
	remaining := n
	errs := make([]error, n)
	done := sim.NewCond(k)
	for i := range n {
		tgt := h.targetFor(off + int64(i)*h.meta.striping.StripeSize)
		k.Spawn(fmt.Sprintf("pfs.stream.n%d.t%d", h.client.node.ID(), tgt), func(sp *sim.Proc) {
			errs[i] = h.stream(sp, i, off, size, isWrite)
			remaining--
			if remaining == 0 {
				done.Signal()
			}
		})
	}
	if remaining > 0 {
		done.Wait(p)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if isWrite {
		h.meta.data.WriteAt(data, off, size)
	}
	return nil
}

// stream pushes the RPCs of stream i of [off, off+size) (see walkStream)
// through the client stack, NIC and target station, serialized per RPC (a
// pipelined RPC stream). An RPC addressed to a down target burns the RPC
// latency waiting for the timeout and aborts the stream; a slowed target
// stretches its service time.
func (h *Handle) stream(sp *sim.Proc, i int, off, size int64, isWrite bool) error {
	s := h.client.sys
	return h.walkStream(i, off, size, func(target int, ext extent.Extent) error {
		// A partitioned client cannot reach any target: the RPC burns the
		// client stack latency plus the target-side timeout and fails with
		// ErrPartitioned, which (unlike ErrTargetDown) heals when the
		// partition does — callers may retry without consuming their fault
		// budget.
		if h.client.node.Isolated() {
			sp.Sleep(s.cfg.ClientRPCLatency + s.cfg.TargetLatency)
			return fmt.Errorf("%w: node %d", ErrPartitioned, h.client.node.ID())
		}
		// Client-side stack (shared cap) then NIC, then target.
		h.client.cap.ServeBytes(sp, s.cfg.ClientRPCLatency, s.cfg.ClientRate, ext.Len)
		if isWrite {
			h.client.node.Inject(sp, ext.Len)
		}
		sp.Sleep(2 * sim.Microsecond) // fabric hop to storage
		ts := s.tstate[target]
		if ts.down {
			sp.Sleep(s.cfg.TargetLatency) // RPC timeout
			if tr := s.k.Tracer(); tr != nil {
				tr.Instant(s.targets[target].TraceTrack(tr), "pfs", "rpc_timeout",
					int64(sp.Now()), trace.I("bytes", ext.Len))
			}
			if m := s.k.Metrics(); m != nil {
				if s.mTimeouts == nil {
					s.mTimeouts = m.Counter("pfs_rpc_timeouts_total", metrics.L(metrics.KeyLayer, "pfs"))
				}
				s.mTimeouts.Inc()
			}
			return fmt.Errorf("%w: tgt%d", ErrTargetDown, target)
		}
		d := s.cfg.TargetLatency + s.cfg.TargetRate.DurationFor(ext.Len)
		d = sim.Jitter(s.k.Rand(), s.cfg.TargetJitter, d)
		if ts.speed != 1 {
			d = sim.Time(float64(d) / ts.speed)
		}
		st := s.targets[target]
		if tgtNs, tgtBytes := s.targetMetrics(target); tgtNs != nil {
			t0 := sp.Now()
			st.Serve(sp, d)
			tgtNs.Observe(int64(sp.Now() - t0))
			tgtBytes.Add(ext.Len)
		} else {
			st.Serve(sp, d)
		}
		st.Bytes += ext.Len
		if !isWrite {
			h.client.node.Eject(sp, ext.Len)
		}
		return nil
	})
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
