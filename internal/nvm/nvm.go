// Package nvm models the node-local non-volatile memory device used as the
// collective-write cache: in the paper's testbed, a 30 GB ext4 partition on
// an 80 GB SATA SSD mounted under /scratch on every compute node.
//
// A Device is a single queueing channel with separate read and write
// stream rates, a per-operation latency and (low) service-time jitter. FS
// layers a flat local file system on top, including the fallocate fast path
// used by ADIOI_Cache_alloc and the write-zeros fallback for file systems
// without fallocate support (footnote 2 of the paper).
package nvm

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// Errors returned by the local file system.
var (
	ErrNoSpace  = errors.New("nvm: no space left on device")
	ErrNotFound = errors.New("nvm: file not found")
	ErrExists   = errors.New("nvm: file exists")
	ErrIO       = errors.New("nvm: input/output error")
)

// DeviceConfig describes one SSD.
type DeviceConfig struct {
	WriteRate sim.Rate // sequential write stream rate
	ReadRate  sim.Rate // sequential read stream rate
	Latency   sim.Time // per-operation latency
	Jitter    sim.Dist // service-time jitter (SSDs: low)
	Capacity  int64    // usable bytes on the cache partition
}

// DefaultDeviceConfig returns parameters approximating the testbed's SATA
// SSD scratch partition.
func DefaultDeviceConfig() DeviceConfig {
	return DeviceConfig{
		WriteRate: 500 * sim.MBps,
		ReadRate:  520 * sim.MBps,
		// The latency models per-operation cost on a fragmented sparse
		// ext4 scratch file, which dominates the 512 KB sync-buffer reads.
		Latency:  500 * sim.Microsecond,
		Jitter:   sim.UnitLogNormal(0.06),
		Capacity: 30 << 30, // 30 GB
	}
}

// Device is one node-local SSD.
type Device struct {
	k       *sim.Kernel
	cfg     DeviceConfig
	name    string
	ch      *sim.Station // device command channel
	used    int64
	failed  bool
	noSpace bool
	arb     *Arbiter // multi-tenant capacity arbiter; nil until Arbiter()

	// Statistics.
	BytesWritten int64
	BytesRead    int64

	// Per-operation latency histograms, registered lazily per op name.
	mOpNs map[string]*metrics.Histogram
}

// opHist resolves the device's latency histogram for op, or nil when
// metrics are disabled.
func (d *Device) opHist(op string) *metrics.Histogram {
	m := d.k.Metrics()
	if m == nil {
		return nil
	}
	h, ok := d.mOpNs[op]
	if !ok {
		h = m.Histogram("nvm_op_ns", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L(metrics.KeyOp, op), metrics.L("dev", d.name))
		if d.mOpNs == nil {
			d.mOpNs = make(map[string]*metrics.Histogram)
		}
		d.mOpNs[op] = h
	}
	return h
}

// NewDevice creates a device on kernel k.
func NewDevice(k *sim.Kernel, kind, name string, cfg DeviceConfig) *Device {
	return &Device{k: k, cfg: cfg, name: name, ch: sim.NewStation(k, kind, name, 1)}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Used returns the allocated byte count.
func (d *Device) Used() int64 { return d.used }

// SetFailed injects (or clears) a device failure: subsequent writes and
// allocations return ErrIO. Used for failure-injection tests — the cache
// layer must fall back to the global file system.
func (d *Device) SetFailed(v bool) { d.failed = v }

// Failed reports the injected failure state.
func (d *Device) Failed() bool { return d.failed }

// SetNoSpace injects (or clears) an out-of-space condition: subsequent
// allocations return ErrNoSpace regardless of actual usage, as if another
// tenant filled the scratch partition.
func (d *Device) SetNoSpace(v bool) { d.noSpace = v }

// NoSpace reports the injected out-of-space state.
func (d *Device) NoSpace() bool { return d.noSpace }

// serve charges one device command. op names the command class for the
// per-operation latency histogram, which measures queueing plus service.
func (d *Device) serve(p *sim.Proc, op string, rate sim.Rate, n int64) {
	t0 := d.serveThen(p, op, rate, n)
	p.Park()
	d.serveDone(op, t0)
}

// serveThen is serve's step form: p resumes once the device has served the
// command, and the resumed step must call serveDone with the returned
// start time.
func (d *Device) serveThen(p *sim.Proc, op string, rate sim.Rate, n int64) (t0 sim.Time) {
	dur := d.cfg.Latency + rate.DurationFor(n)
	dur = sim.Jitter(d.k.Rand(), d.cfg.Jitter, dur)
	if h := d.opHist(op); h != nil {
		t0 = d.k.Now()
	}
	d.ch.ServeThen(p, dur)
	return t0
}

// serveDone accounts a command that serveThen started at t0.
func (d *Device) serveDone(op string, t0 sim.Time) {
	if h := d.opHist(op); h != nil {
		h.Observe(int64(d.k.Now() - t0))
	}
}

// write charges a write of n bytes.
func (d *Device) write(p *sim.Proc, n int64) {
	d.serve(p, "write", d.cfg.WriteRate, n)
	d.BytesWritten += n
	if m := d.k.Metrics(); m != nil {
		m.Counter("nvm_write_bytes_total", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L("dev", d.name)).Add(n)
	}
}

// readDone accounts a read of n bytes that serveThen started at t0.
func (d *Device) readDone(t0 sim.Time, n int64) {
	d.serveDone("read", t0)
	d.BytesRead += n
	if m := d.k.Metrics(); m != nil {
		m.Counter("nvm_read_bytes_total", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L("dev", d.name)).Add(n)
	}
}

// reserveAs claims n bytes of capacity on behalf of tenant ("" for the
// anonymous single-tenant path). Once an arbiter exists, all claims go
// through it so quotas and admission reservations are enforced uniformly.
func (d *Device) reserveAs(tenant string, n int64) error {
	if d.noSpace {
		return fmt.Errorf("%w: %s (injected)", ErrNoSpace, d.name)
	}
	if d.arb != nil {
		return d.arb.reserveFor(tenant, n)
	}
	if d.used+n > d.cfg.Capacity {
		return fmt.Errorf("%w: need %d, free %d", ErrNoSpace, n, d.cfg.Capacity-d.used)
	}
	d.used += n
	return nil
}

// releaseAs frees n bytes of tenant's capacity.
func (d *Device) releaseAs(tenant string, n int64) {
	if d.arb != nil {
		d.arb.releaseFor(tenant, n)
		return
	}
	d.release(n)
}

// traceError marks a device-level failure on the device's trace timeline
// (the same track its station busy spans and queue counters live on) and in
// the per-device error counter.
func (d *Device) traceError(name string) {
	if tr := d.k.Tracer(); tr != nil {
		tr.Instant(d.ch.TraceTrack(tr), "nvm", name, int64(d.k.Now()))
	}
	if m := d.k.Metrics(); m != nil {
		m.Counter("nvm_errors_total", metrics.L(metrics.KeyLayer, "nvm"),
			metrics.L(metrics.KeyOp, name), metrics.L("dev", d.name)).Inc()
	}
}

// release frees n bytes of capacity.
func (d *Device) release(n int64) {
	d.used -= n
	if d.used < 0 {
		panic("nvm: released more than reserved")
	}
}

// FSConfig describes the local file system behaviour.
type FSConfig struct {
	SupportsFallocate bool // when false, Fallocate physically writes zeros
}

// FS is a flat local file system on one device.
type FS struct {
	dev     *Device
	cfg     FSConfig
	factory store.Factory
	files   map[string]*File
}

// NewFS creates a local file system. factory selects the payload backend.
func NewFS(dev *Device, cfg FSConfig, factory store.Factory) *FS {
	return &FS{dev: dev, cfg: cfg, factory: factory, files: make(map[string]*File)}
}

// Device returns the underlying SSD.
func (fs *FS) Device() *Device { return fs.dev }

// CreateTenant creates a new file owned by tenant, charging the tenant's
// file-count quota. tenant "" is the anonymous single-tenant path.
func (fs *FS) CreateTenant(name, tenant string) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	if tenant != "" {
		if err := fs.dev.Arbiter().chargeFile(tenant); err != nil {
			return nil, err
		}
	}
	f := &File{fs: fs, name: name, data: fs.factory(), tenant: tenant}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file, or creates it when create is true.
func (fs *FS) Open(name string, create bool) (*File, error) {
	return fs.OpenTenant(name, "", create)
}

// OpenTenant is Open with tenant attribution for newly created files.
func (fs *FS) OpenTenant(name, tenant string, create bool) (*File, error) {
	if f, ok := fs.files[name]; ok {
		return f, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fs.CreateTenant(name, tenant)
}

// Remove unlinks a file, returning its allocated space to the device and
// its payload memory to the store's pool, so another file can reuse those
// pages. The handle goes stale: this file system models a cache, where
// Remove means discard/evict, so letting a stale handle keep writing
// would reserve capacity that no later Remove could return (the
// stranded-bytes bug), and its released store no longer holds the pages.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	fs.dev.releaseAs(f.tenant, f.Allocated())
	if f.tenant != "" {
		fs.dev.Arbiter().releaseFile(f.tenant)
	}
	f.unlinked = true
	f.reserved.Clear()
	if r, ok := f.data.(store.Releaser); ok {
		r.Release()
	}
	delete(fs.files, name)
	return nil
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Files returns every file sorted by name, for deterministic iteration
// (fault injection walks them to corrupt at-rest content).
func (fs *FS) Files() []*File {
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*File, len(names))
	for i, name := range names {
		out[i] = fs.files[name]
	}
	return out
}

// File is a local file. Allocation is sparse (like ext4): only the byte
// ranges actually written or fallocated consume device capacity, so a
// cache file addressed at global-file offsets does not over-account.
type File struct {
	fs       *FS
	name     string
	tenant   string // owning tenant; "" for single-tenant runs
	unlinked bool   // set by FS.Remove; further writes return ErrStale
	data     store.Store
	reserved extent.Set // ranges holding allocated blocks
}

// Store exposes the payload backend (used by tests and the cache layer).
func (f *File) Store() store.Store { return f.data }

// Allocated returns the bytes of device capacity held by this file.
func (f *File) Allocated() int64 { return f.reserved.TotalBytes() }

// reserve claims capacity for the not-yet-allocated parts of e and returns
// how many new bytes were claimed. The claim is all-or-nothing: on any
// error neither f.reserved nor the device's accounting moves, so a failed
// allocation racing an eviction can never strand reserved bytes.
func (f *File) reserve(e extent.Extent) (int64, error) {
	if f.unlinked {
		return 0, fmt.Errorf("%w: %s", ErrStale, f.name)
	}
	if f.fs.dev.failed {
		f.fs.dev.traceError("io_error")
		return 0, fmt.Errorf("%w: %s", ErrIO, f.fs.dev.name)
	}
	var need int64
	for _, g := range f.reserved.Gaps(e) {
		need += g.Len
	}
	if need == 0 {
		return 0, nil
	}
	if err := f.fs.dev.reserveAs(f.tenant, need); err != nil {
		if errors.Is(err, ErrQuota) {
			f.fs.dev.traceError("quota")
		} else {
			f.fs.dev.traceError("enospc")
		}
		return 0, err
	}
	f.reserved.Add(e)
	return need, nil
}

// AllocatedExtents returns the byte ranges currently holding allocated
// blocks (a copy of the allocation map, sorted).
func (f *File) AllocatedExtents() []extent.Extent { return f.reserved.Extents() }

// Punch deallocates the blocks of e, returning their capacity to the
// device and dropping them from the written-extent map — the cache layer's
// clean-extent eviction primitive. Callers must only punch ranges whose
// content is durable elsewhere. Returns the bytes actually freed.
func (f *File) Punch(e extent.Extent) int64 {
	if f.unlinked {
		return 0
	}
	var freed int64
	for _, a := range f.reserved.Extents() {
		ov := a.Intersect(e)
		if !ov.Empty() {
			freed += ov.Len
		}
	}
	if freed == 0 {
		return 0
	}
	f.reserved.Remove(e)
	f.data.Written().Remove(e)
	f.fs.dev.releaseAs(f.tenant, freed)
	if f.fs.dev.arb != nil {
		f.fs.dev.arb.noteEvicted(f.tenant, freed)
	}
	return freed
}

// Fallocate reserves the byte range [off, off+size). With fallocate
// support this is a metadata-only operation; without it, zeros are
// physically written for the newly allocated bytes (the paper's fallback
// path, footnote 2), costing full device write time.
func (f *File) Fallocate(p *sim.Proc, off, size int64) error {
	grow, err := f.reserve(extent.Extent{Off: off, Len: size})
	if err != nil {
		return err
	}
	if f.fs.cfg.SupportsFallocate {
		f.fs.dev.serve(p, "meta", 0, 0) // one metadata op
		return nil
	}
	if grow > 0 {
		f.fs.dev.write(p, grow)
		f.data.WriteAt(nil, off, size)
	}
	return nil
}

// WriteAt writes size bytes at off from src, charging device time. src
// may be nil for metadata-only simulation.
func (f *File) WriteAt(p *sim.Proc, src store.Source, off, size int64) error {
	if _, err := f.reserve(extent.Extent{Off: off, Len: size}); err != nil {
		return err
	}
	f.fs.dev.write(p, size)
	f.data.WriteAt(src, off, size)
	return nil
}

// ReadAt reads size bytes at off into dst (metadata-only when dst is nil).
// A failed device returns ErrIO after charging the attempt's latency,
// mirroring a timed-out block-layer read.
func (f *File) ReadAt(p *sim.Proc, dst store.Sink, off, size int64) error {
	rd, err := f.ReadThen(p, dst, off, size)
	if err != nil {
		return err
	}
	p.Park()
	return f.ReadDone(rd)
}

// Read is a read that ReadThen queued on the device, for ReadDone.
type Read struct {
	dst       store.Sink
	off, size int64
	t0        sim.Time
	failed    bool // the device had failed when the read was queued
}

// ReadThen is ReadAt's step form: it queues the read, and p resumes once
// the device has served it; the resumed step must call ReadDone with the
// returned Read. An error means nothing was queued: the file was removed.
func (f *File) ReadThen(p *sim.Proc, dst store.Sink, off, size int64) (Read, error) {
	if f.unlinked {
		return Read{}, fmt.Errorf("%w: %s", ErrStale, f.name)
	}
	rd := Read{dst: dst, off: off, size: size, failed: f.fs.dev.failed}
	if rd.failed {
		rd.t0 = f.fs.dev.serveThen(p, "read", 0, 0)
	} else {
		rd.t0 = f.fs.dev.serveThen(p, "read", f.fs.dev.cfg.ReadRate, size)
	}
	return rd, nil
}

// ReadDone completes a read that ReadThen queued: it copies the bytes out
// into the sink, or returns ErrIO when the device had failed.
func (f *File) ReadDone(rd Read) error {
	if rd.failed {
		f.fs.dev.serveDone("read", rd.t0)
		f.fs.dev.traceError("io_error")
		return fmt.Errorf("%w: %s", ErrIO, f.fs.dev.name)
	}
	f.fs.dev.readDone(rd.t0, rd.size)
	f.data.ReadAt(rd.dst, rd.off, rd.size)
	return nil
}
