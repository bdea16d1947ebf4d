package mpiio

import (
	"errors"
	"fmt"

	"repro/internal/adio"
	"repro/internal/mpe"
	"repro/internal/mpi"
)

// Access-mode flags (MPI_MODE_*).
const (
	ModeRdOnly = 1 << iota
	ModeWrOnly
	ModeRdWr
	ModeCreate
	ModeDeleteOnClose
)

// Env holds the pieces an open needs: the driver registry and the optional
// cache hook factory (package core). One Env describes one cluster.
type Env struct {
	Registry *adio.Registry
	Hooks    adio.HooksFactory
}

// File is an open MPI file handle on one rank.
type File struct {
	env    *Env
	fh     *adio.File
	comm   *mpi.Comm
	rank   *mpi.Rank
	view   View
	amode  int
	path   string
	closed bool
}

// Open is MPI_File_open: collective over comm.
func (env *Env) Open(r *mpi.Rank, comm *mpi.Comm, path string, amode int, info mpi.Info) (*File, error) {
	return env.OpenWithLog(r, comm, path, amode, info, nil)
}

// OpenWithLog is Open with an explicit MPE log for phase instrumentation.
func (env *Env) OpenWithLog(r *mpi.Rank, comm *mpi.Comm, path string, amode int, info mpi.Info, log *mpe.Log) (*File, error) {
	if env.Registry == nil {
		return nil, errors.New("mpiio: env has no driver registry")
	}
	fh, err := adio.OpenColl(r, adio.OpenArgs{
		Comm:     comm,
		Registry: env.Registry,
		Path:     path,
		Create:   amode&ModeCreate != 0,
		Info:     info,
		Hooks:    env.Hooks,
		Log:      log,
	})
	if err != nil {
		return nil, err
	}
	return &File{env: env, fh: fh, comm: comm, rank: r, view: DefaultView(), amode: amode, path: path}, nil
}

// Handle exposes the underlying ADIO file (stats, hints, logs).
func (f *File) Handle() *adio.File { return f.fh }

// Comm returns the file's communicator.
func (f *File) Comm() *mpi.Comm { return f.comm }

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// SetView is MPI_File_set_view with a flattened filetype.
func (f *File) SetView(disp int64, filetype FlatType) error {
	if err := filetype.Validate(); err != nil {
		return err
	}
	f.view = View{Disp: disp, Filetype: filetype}
	return nil
}

// GetInfo is MPI_File_get_info: the hints in use, as normalized.
func (f *File) GetInfo() mpi.Info { return f.fh.Hints().Echo() }

// WriteAtAll is MPI_File_write_at_all: a collective write of n bytes at
// view offset vo. data may be nil for metadata-only simulation; otherwise
// len(data) must equal n.
func (f *File) WriteAtAll(vo int64, data []byte, n int64) error {
	if err := f.checkWritable(data, n); err != nil {
		return err
	}
	segs, err := f.view.Map(vo, n)
	if err != nil {
		return err
	}
	return f.fh.WriteStridedColl(segs, data)
}

// WriteAt is MPI_File_write_at: an independent write at view offset vo.
func (f *File) WriteAt(vo int64, data []byte, n int64) error {
	if err := f.checkWritable(data, n); err != nil {
		return err
	}
	segs, err := f.view.Map(vo, n)
	if err != nil {
		return err
	}
	return f.fh.WriteStrided(segs, data)
}

// ReadAt is MPI_File_read_at: an independent read at view offset vo into
// buf (or n bytes metadata-only when buf is nil). Reads come from the
// global file unless the cache layer's read extension is enabled (§III-B).
func (f *File) ReadAt(vo int64, buf []byte, n int64) error {
	if buf != nil {
		n = int64(len(buf))
	}
	segs, err := f.view.Map(vo, n)
	if err != nil {
		return err
	}
	return f.fh.ReadStrided(segs, buf)
}

// ReadAtAll is MPI_File_read_at_all: a collective read at view offset vo.
// Aggregators read their file domains and scatter the pieces (two-phase
// read).
func (f *File) ReadAtAll(vo int64, buf []byte, n int64) error {
	if buf != nil {
		n = int64(len(buf))
	}
	segs, err := f.view.Map(vo, n)
	if err != nil {
		return err
	}
	return f.fh.ReadStridedColl(segs, buf)
}

// Sync is MPI_File_sync: after it returns, all data this rank wrote is
// visible in the global file.
func (f *File) Sync() error { return f.fh.Flush() }

// Size is MPI_File_get_size: the current size of the global file.
func (f *File) Size() int64 { return f.fh.Backend().Size() }

// SetSize is MPI_File_set_size: truncate or extend the file. It is
// collective; callers must invoke it on every rank (rank 0 performs the
// metadata operation, then all ranks synchronise).
func (f *File) SetSize(size int64) error {
	if size < 0 {
		return errors.New("mpiio: negative size")
	}
	if f.comm.RankOf(f.rank) == 0 {
		f.fh.Backend().Resize(f.rank.Proc(), size)
	}
	f.comm.Barrier(f.rank)
	return nil
}

// Preallocate is MPI_File_preallocate: reserve space up to size. On the
// global file system this is a metadata-only operation in this model.
func (f *File) Preallocate(size int64) error {
	if size < 0 {
		return errors.New("mpiio: negative size")
	}
	if f.comm.RankOf(f.rank) == 0 && size > f.Size() {
		f.fh.Backend().Resize(f.rank.Proc(), size)
	}
	f.comm.Barrier(f.rank)
	return nil
}

// Close is MPI_File_close: collective; completes outstanding cache
// synchronisation first (§III-B), then closes, then optionally deletes.
func (f *File) Close() error {
	if f.closed {
		return errors.New("mpiio: file closed twice")
	}
	err := f.fh.Close()
	f.comm.Barrier(f.rank)
	f.closed = true
	if f.amode&ModeDeleteOnClose != 0 && f.comm.RankOf(f.rank) == 0 {
		if derr := f.env.Delete(f.rank, f.path); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// Delete is MPI_File_delete.
func (env *Env) Delete(r *mpi.Rank, path string) error {
	drv, rel, err := env.Registry.Resolve(path)
	if err != nil {
		return err
	}
	return drv.Unlink(r, rel)
}

func (f *File) checkWritable(data []byte, n int64) error {
	if f.closed {
		return errors.New("mpiio: write on closed file")
	}
	if f.amode&ModeRdOnly != 0 {
		return errors.New("mpiio: write on read-only file")
	}
	if data != nil && int64(len(data)) != n {
		return fmt.Errorf("mpiio: data length %d != n %d", len(data), n)
	}
	return nil
}
