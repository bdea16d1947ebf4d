package adio

import (
	"fmt"
	"strings"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// Driver is an ADIO file-system driver. A driver produces per-rank backend
// handles and defines the file-domain partitioning strategy best suited to
// the file system's locking/striping protocol.
type Driver interface {
	// Open opens (optionally creating) path for the calling rank.
	Open(r *mpi.Rank, path string, create bool, h *Hints) (DriverFile, error)
	// Unlink removes the file.
	Unlink(r *mpi.Rank, path string) error
	// FileDomains partitions the aggregate access range [min, max] (inclusive
	// offsets, as in ROMIO) into naggs contiguous file domains.
	FileDomains(min, max int64, naggs int, h *Hints) []extent.Extent
}

// DriverFile is one rank's open backend file.
type DriverFile interface {
	// WriteContig writes size contiguous bytes at off from src, or
	// metadata-only when src is nil (ADIO_WriteContig).
	WriteContig(p *sim.Proc, src store.Source, off, size int64) error
	// StartWrite sets op up as WriteContig's step form, for a step
	// process: op.Step runs the write to each of its waits.
	StartWrite(op *pfs.Op, src store.Source, off, size int64)
	// ReadContig reads size bytes at off into dst (metadata-only when dst
	// is nil).
	ReadContig(p *sim.Proc, dst store.Sink, off, size int64) error
	// Flush pushes dirty state to stable storage.
	Flush(p *sim.Proc)
	// Close releases the handle.
	Close(p *sim.Proc)
	// Size returns the file size as seen by this rank.
	Size() int64
	// Resize truncates or extends the file (MPI_File_set_size).
	Resize(p *sim.Proc, size int64)
}

// genFileDomains is ROMIO's generic equal partitioning
// (ADIOI_Calc_file_domains): the accessed byte range is divided evenly with
// the remainder spread one byte at a time over the leading domains.
func genFileDomains(min, max int64, naggs int) []extent.Extent {
	total := max - min + 1
	if total <= 0 || naggs <= 0 {
		return nil
	}
	if int64(naggs) > total {
		naggs = int(total)
	}
	base := total / int64(naggs)
	rem := total % int64(naggs)
	out := make([]extent.Extent, 0, naggs)
	off := min
	for i := 0; i < naggs; i++ {
		l := base
		if int64(i) < rem {
			l++
		}
		out = append(out, extent.Extent{Off: off, Len: l})
		off += l
	}
	return out
}

// alignedFileDomains aligns domain boundaries to multiples of unit
// (stripe-aligned partitioning, as in the Lustre ADIO driver and the BeeGFS
// driver developed in the course of the paper — footnote 1). Every domain
// gets a whole number of stripes; the first domains take the remainder.
func alignedFileDomains(min, max int64, naggs int, unit int64) []extent.Extent {
	if unit <= 0 {
		return genFileDomains(min, max, naggs)
	}
	start := min / unit * unit
	end := (max + unit) / unit * unit // exclusive, stripe-aligned
	stripes := (end - start) / unit
	if stripes <= 0 || naggs <= 0 {
		return nil
	}
	if int64(naggs) > stripes {
		naggs = int(stripes)
	}
	base := stripes / int64(naggs)
	rem := stripes % int64(naggs)
	out := make([]extent.Extent, 0, naggs)
	off := start
	for i := 0; i < naggs; i++ {
		s := base
		if int64(i) < rem {
			s++
		}
		e := extent.Extent{Off: off, Len: s * unit}
		off += s * unit
		// Clamp the first and last domains to the accessed range.
		if e.Off < min {
			e.Len -= min - e.Off
			e.Off = min
		}
		if e.End() > max+1 {
			e.Len = max + 1 - e.Off
		}
		out = append(out, e)
	}
	return out
}

// UFSDriver is the generic Unix-file-system driver backed by the global
// parallel file system model; it uses ROMIO's generic even file-domain
// partitioning.
type UFSDriver struct {
	clients func(node int) *pfs.Client
	aligned bool // stripe-align file domains (BeeGFS/Lustre behaviour)
}

// NewUFSDriver creates the generic driver. clients maps a node id to that
// node's file-system client.
func NewUFSDriver(clients func(node int) *pfs.Client) *UFSDriver {
	return &UFSDriver{clients: clients}
}

// NewBeeGFSDriver creates the stripe-aligned driver the paper's authors
// wrote for BeeGFS (footnote 1): identical data path, but file domains are
// aligned to stripe boundaries to avoid stripe collisions between
// aggregators.
func NewBeeGFSDriver(clients func(node int) *pfs.Client) *UFSDriver {
	return &UFSDriver{clients: clients, aligned: true}
}

// Open implements Driver.
func (d *UFSDriver) Open(r *mpi.Rank, path string, create bool, h *Hints) (DriverFile, error) {
	c := d.clients(r.Node().ID())
	if c == nil {
		return nil, fmt.Errorf("adio: node %d has no file-system client", r.Node().ID())
	}
	striping := pfs.Striping{}
	if h != nil {
		striping.StripeCount = h.StripingFactor
		striping.StripeSize = h.StripingUnit
	}
	ph, err := c.Open(r.Proc(), path, create, striping)
	if err != nil {
		return nil, err
	}
	return &ufsFile{h: ph, rank: r}, nil
}

// Unlink implements Driver.
func (d *UFSDriver) Unlink(r *mpi.Rank, path string) error {
	return d.clients(r.Node().ID()).Unlink(r.Proc(), path)
}

// FileDomains implements Driver.
func (d *UFSDriver) FileDomains(min, max int64, naggs int, h *Hints) []extent.Extent {
	if d.aligned {
		unit := int64(0)
		if h != nil {
			unit = h.StripingUnit
		}
		if unit <= 0 {
			unit = 4 << 20
		}
		return alignedFileDomains(min, max, naggs, unit)
	}
	return genFileDomains(min, max, naggs)
}

type ufsFile struct {
	h    *pfs.Handle
	rank *mpi.Rank
}

func (f *ufsFile) WriteContig(p *sim.Proc, src store.Source, off, size int64) error {
	return f.h.WriteAt(p, src, off, size)
}

func (f *ufsFile) StartWrite(op *pfs.Op, src store.Source, off, size int64) {
	f.h.StartWrite(op, src, off, size)
}

func (f *ufsFile) ReadContig(p *sim.Proc, dst store.Sink, off, size int64) error {
	return f.h.ReadAt(p, dst, off, size)
}

func (f *ufsFile) Flush(p *sim.Proc) { f.h.Sync(p) }
func (f *ufsFile) Close(p *sim.Proc) { f.h.Close(p) }
func (f *ufsFile) Size() int64       { return f.h.Meta().Size() }

// PayloadBacked reports whether the global file holds real bytes; the cache
// layer's crash recovery only read-back-verifies replayed extents when it
// does.
func (f *ufsFile) PayloadBacked() bool {
	_, ok := f.h.Meta().Store().(store.PayloadBacked)
	return ok
}

func (f *ufsFile) Resize(p *sim.Proc, size int64) { f.h.Truncate(p, size) }

// Registry maps path prefixes to drivers, like ROMIO's file-system type
// resolution ("ufs:", "beegfs:", "pvfs2:" prefixes).
type Registry struct {
	mounts map[string]Driver
	def    Driver
}

// NewRegistry creates a registry with def as the prefix-less default.
func NewRegistry(def Driver) *Registry {
	return &Registry{mounts: make(map[string]Driver), def: def}
}

// Mount registers a driver for paths of the form "prefix:rest".
func (g *Registry) Mount(prefix string, d Driver) { g.mounts[prefix] = d }

// Resolve returns the driver for path and the path with its prefix removed.
func (g *Registry) Resolve(path string) (Driver, string, error) {
	if i := strings.Index(path, ":"); i > 0 {
		prefix, rest := path[:i], path[i+1:]
		if d, ok := g.mounts[prefix]; ok {
			return d, rest, nil
		}
		return nil, "", fmt.Errorf("adio: no driver mounted for prefix %q", prefix)
	}
	if g.def == nil {
		return nil, "", fmt.Errorf("adio: no default driver for path %q", path)
	}
	return g.def, path, nil
}
