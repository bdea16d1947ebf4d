// Package h5lite is a minimal parallel HDF5-like container built on the
// MPI-IO layer. Flash-IO writes its checkpoint and plot files through the
// parallel HDF5 library; this package reproduces the resulting access
// pattern: a small superblock and per-dataset object headers written by
// rank 0, and large contiguous dataset regions written collectively by all
// ranks. Datasets are laid out contiguously at aligned offsets.
package h5lite

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// Layout constants.
const (
	superblockSize = 96
	headerSize     = 256  // per-dataset object header
	dataAlign      = 4096 // dataset data alignment
)

// signature mimics the HDF5 format signature.
var signature = []byte("\x89HDF\r\n\x1a\n")

// Writer builds one container file collectively. All methods must be
// called by every rank of the file's communicator in the same order.
type Writer struct {
	f      *mpiio.File
	rank   *mpi.Rank
	cursor int64 // next free byte
	nsets  int
	closed bool
}

// Create initialises the container: rank 0 writes the superblock.
func Create(r *mpi.Rank, f *mpiio.File) (*Writer, error) {
	w := &Writer{f: f, rank: r, cursor: superblockSize}
	if f.Comm().RankOf(r) == 0 {
		sb := make([]byte, superblockSize)
		copy(sb, signature)
		binary.LittleEndian.PutUint32(sb[8:], 0) // version
		if err := f.WriteAt(0, sb, superblockSize); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Dataset is a contiguous dataset region within the container.
type Dataset struct {
	Name string
	Base int64 // file offset of the data region
	Size int64 // data bytes
}

// CreateDataset allocates a dataset of size bytes. Rank 0 writes the object
// header; the data region starts at the next aligned offset. Collective:
// every rank computes the same layout.
func (w *Writer) CreateDataset(name string, size int64) (Dataset, error) {
	if w.closed {
		return Dataset{}, fmt.Errorf("h5lite: writer closed")
	}
	if size < 0 {
		return Dataset{}, fmt.Errorf("h5lite: negative dataset size")
	}
	hdrOff := w.cursor
	base := align(hdrOff+headerSize, dataAlign)
	ds := Dataset{Name: name, Base: base, Size: size}
	w.cursor = base + size
	w.nsets++
	if w.f.Comm().RankOf(w.rank) == 0 {
		hdr := make([]byte, headerSize)
		copy(hdr, "OHDR")
		n := copy(hdr[16:48], name)
		_ = n
		binary.LittleEndian.PutUint64(hdr[48:], uint64(base))
		binary.LittleEndian.PutUint64(hdr[56:], uint64(size))
		if err := w.f.WriteAt(hdrOff, hdr, headerSize); err != nil {
			return ds, err
		}
	}
	return ds, nil
}

// WriteAll collectively writes n bytes into the dataset at dataset-relative
// offset off. data may be nil for metadata-only simulation.
func (w *Writer) WriteAll(ds Dataset, off int64, data []byte, n int64) error {
	if off < 0 || off+n > ds.Size {
		return fmt.Errorf("h5lite: write [%d,%d) outside dataset %q of %d bytes", off, off+n, ds.Name, ds.Size)
	}
	return w.f.WriteAtAll(ds.Base+off, data, n)
}

// Close finalises the container: rank 0 writes the root-group object count
// into the superblock area. The underlying MPI file is NOT closed (the
// caller controls close timing, e.g. for the deferred-close workflow).
func (w *Writer) Close() error {
	if w.closed {
		return fmt.Errorf("h5lite: writer closed twice")
	}
	w.closed = true
	if w.f.Comm().RankOf(w.rank) == 0 {
		tail := make([]byte, 16)
		copy(tail, "ROOT")
		binary.LittleEndian.PutUint32(tail[4:], uint32(w.nsets))
		return w.f.WriteAt(superblockSize-16, tail, 16)
	}
	return nil
}

func align(x, a int64) int64 { return (x + a - 1) / a * a }
