// Package workloads implements the three I/O benchmarks of the paper's
// evaluation (§IV): coll_perf (the MPICH collective I/O benchmark, a
// block-distributed 3D array), Flash-IO (the I/O kernel of the FLASH
// adaptive-mesh hydrodynamics code, writing HDF5 checkpoints), and IOR
// (segmented shared-file writes). Each produces exactly the logical file
// layout the paper describes; the harness drives them through the modified
// multi-file + compute-delay workflow of Figure 3.
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/extent"
	"repro/internal/h5lite"
	"repro/internal/mpi"
	"repro/internal/mpiio"
)

// Workload writes one complete shared file per phase.
type Workload interface {
	// Name identifies the workload ("coll_perf", "flashio", "ior").
	Name() string
	// FileBytes is the total data volume of one file for nranks processes.
	FileBytes(nranks int) int64
	// WritePhase issues the collective writes of one file on rank r.
	// payload selects whether real bytes flow (tests) or only extents
	// (large evaluation runs).
	WritePhase(r *mpi.Rank, f *mpiio.File, payload bool) error
}

// patternByte produces a deterministic, rank- and offset-dependent byte for
// payload-mode verification.
func patternByte(rank int, off int64) byte {
	return byte(int64(rank)*131 + off*7 + 13)
}

// fill creates a payload buffer for [off, off+n) in file space owned by rank.
func fill(rank int, off, n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = patternByte(rank, off+int64(i))
	}
	return b
}

// ---------------------------------------------------------------------------
// coll_perf

// CollPerf is the MPICH coll_perf benchmark: a tridimensional
// block-distributed array written to a shared file, producing a strided
// pattern. Every process holds one block of RunBytes × RunsY × RunsZ bytes
// (64 MB with the defaults); processes form a 3D grid.
//
// The paper's runs use 512 processes each writing one 64 MB block. Byte
// granularity of the simulated pattern is RunBytes (the unit of contiguous
// data in the file), chosen so a block flattens to RunsY*RunsZ contiguous
// runs, which is the structure the real benchmark produces after datatype
// flattening.
type CollPerf struct {
	RunBytes int64 // contiguous bytes per run (x-extent of the local block)
	RunsY    int   // runs per block in y
	RunsZ    int   // runs per block in z
}

// DefaultCollPerf returns the 64 MB/process configuration used in §IV-B.
func DefaultCollPerf() CollPerf {
	return CollPerf{RunBytes: 256 << 10, RunsY: 16, RunsZ: 16}
}

// Name implements Workload.
func (c CollPerf) Name() string { return "coll_perf" }

// BlockBytes is the per-process data volume.
func (c CollPerf) BlockBytes() int64 {
	return c.RunBytes * int64(c.RunsY) * int64(c.RunsZ)
}

// FileBytes implements Workload.
func (c CollPerf) FileBytes(nranks int) int64 { return c.BlockBytes() * int64(nranks) }

// gridCache memoizes grid: Segments calls it once per rank, and the
// factorization scan is O(n·d(n)) — 17% of a 4096-rank run's CPU before
// caching. Keys are process counts, values are [3]int grids.
var gridCache sync.Map

// grid factorizes n into a near-cubic (px, py, pz) process grid.
func grid(n int) (int, int, int) {
	if g, ok := gridCache.Load(n); ok {
		b := g.([3]int)
		return b[0], b[1], b[2]
	}
	best := [3]int{n, 1, 1}
	bestScore := n * n
	for px := 1; px <= n; px++ {
		if n%px != 0 {
			continue
		}
		rest := n / px
		for py := 1; py <= rest; py++ {
			if rest%py != 0 {
				continue
			}
			pz := rest / py
			score := px*px + py*py + pz*pz
			if score < bestScore {
				bestScore = score
				best = [3]int{px, py, pz}
			}
		}
	}
	gridCache.Store(n, best)
	return best[0], best[1], best[2]
}

// Segments returns rank's file extents for an nranks-process run.
func (c CollPerf) Segments(rank, nranks int) []extent.Extent {
	segs, _ := c.runs(rank, nranks, false)
	return segs
}

// runs returns rank's file extents and the file offset of the first. With
// rebase, every extent is shifted by that offset, so the first starts at 0.
func (c CollPerf) runs(rank, nranks int, rebase bool) ([]extent.Extent, int64) {
	px, py, _ := grid(nranks)
	ix := rank % px
	iy := (rank / px) % py
	iz := rank / (px * py)
	rowLen := int64(px) * c.RunBytes        // one global x-row
	planeRows := int64(py) * int64(c.RunsY) // global rows per z-plane
	first := (int64(iz)*int64(c.RunsZ)*planeRows+int64(iy)*int64(c.RunsY))*rowLen +
		int64(ix)*c.RunBytes
	base := first
	if rebase {
		base = 0
	}
	segs := make([]extent.Extent, 0, c.RunsY*c.RunsZ)
	for jz := 0; jz < c.RunsZ; jz++ {
		for jy := 0; jy < c.RunsY; jy++ {
			off := base + (int64(jz)*planeRows+int64(jy))*rowLen
			segs = append(segs, extent.Extent{Off: off, Len: c.RunBytes})
		}
	}
	return segs, first
}

// WritePhase implements Workload: one collective write of the whole block
// through a flattened strided view, like MPI_File_write_all over a
// subarray datatype.
func (c CollPerf) WritePhase(r *mpi.Rank, f *mpiio.File, payload bool) error {
	data, err := c.setView(r, f, payload)
	if err != nil {
		return err
	}
	return f.WriteAtAll(0, data, c.BlockBytes())
}

// setView sets rank r's view of f to its block and returns the block's
// payload (nil without one).
func (c CollPerf) setView(r *mpi.Rank, f *mpiio.File, payload bool) ([]byte, error) {
	me := f.Comm().RankOf(r)
	segs, base := c.runs(me, f.Comm().Size(), true)
	ft := mpiio.FlatType{Extent: segs[len(segs)-1].End(), Segs: segs}
	if err := f.SetView(base, ft); err != nil {
		return nil, err
	}
	if !payload {
		return nil, nil
	}
	data := make([]byte, 0, c.BlockBytes())
	for _, s := range segs {
		data = append(data, fill(me, base+s.Off, s.Len)...)
	}
	return data, nil
}

// ---------------------------------------------------------------------------
// IOR

// IOR is the segmented shared-file write pattern of §IV-D: every process
// writes one block of BlockBytes for each of Segments segments; segment s
// of rank r lands at s*P*BlockBytes + r*BlockBytes.
type IOR struct {
	BlockBytes int64
	Segments   int
}

// DefaultIOR returns the 8 MB × 8 segments configuration of the paper
// (32 GB per file with 512 processes).
func DefaultIOR() IOR { return IOR{BlockBytes: 8 << 20, Segments: 8} }

// Name implements Workload.
func (i IOR) Name() string { return "ior" }

// FileBytes implements Workload.
func (i IOR) FileBytes(nranks int) int64 {
	return i.BlockBytes * int64(i.Segments) * int64(nranks)
}

// Offset returns the file offset of rank's block in segment s.
func (i IOR) Offset(rank, nranks, s int) int64 {
	return (int64(s)*int64(nranks) + int64(rank)) * i.BlockBytes
}

// WritePhase implements Workload: one collective write per segment.
func (i IOR) WritePhase(r *mpi.Rank, f *mpiio.File, payload bool) error {
	me := f.Comm().RankOf(r)
	nranks := f.Comm().Size()
	if err := f.SetView(0, mpiio.FlatType{}); err != nil {
		return err
	}
	for s := 0; s < i.Segments; s++ {
		off := i.Offset(me, nranks, s)
		var data []byte
		if payload {
			data = fill(me, off, i.BlockBytes)
		}
		if err := f.WriteAtAll(off, data, i.BlockBytes); err != nil {
			return fmt.Errorf("ior segment %d: %w", s, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Flash-IO

// FlashIO is the I/O kernel of the FLASH block-structured AMR code. The
// checkpoint file holds, for each of Vars unknowns, one dataset of
// (nranks × BlocksPerProc) blocks of ZonesPerBlock zones at 8 bytes per
// zone; each process owns a contiguous run of blocks in every dataset.
// With the defaults (80 blocks/proc, 16³ zones, 24 variables) the file is
// slightly over 30 GB at 512 processes, as in §IV-C.
type FlashIO struct {
	BlocksPerProc int
	ZonesPerBlock int // 16*16*16 with a standard FLASH block
	Vars          int
	BytesPerZone  int
}

// DefaultFlashIO returns the paper's checkpoint configuration.
func DefaultFlashIO() FlashIO {
	return FlashIO{BlocksPerProc: 80, ZonesPerBlock: 16 * 16 * 16, Vars: 24, BytesPerZone: 8}
}

// Name implements Workload.
func (fl FlashIO) Name() string { return "flashio" }

// BlockBytes is the size of one block of one variable.
func (fl FlashIO) BlockBytes() int64 {
	return int64(fl.ZonesPerBlock) * int64(fl.BytesPerZone)
}

// ChunkBytes is the contiguous bytes one process writes per variable.
func (fl FlashIO) ChunkBytes() int64 {
	return fl.BlockBytes() * int64(fl.BlocksPerProc)
}

// FileBytes implements Workload.
func (fl FlashIO) FileBytes(nranks int) int64 {
	return fl.ChunkBytes() * int64(fl.Vars) * int64(nranks)
}

// WritePhase implements Workload: an h5lite checkpoint with one collective
// write per variable dataset plus rank-0 metadata writes.
func (fl FlashIO) WritePhase(r *mpi.Rank, f *mpiio.File, payload bool) error {
	w, err := h5lite.Create(r, f)
	if err != nil {
		return err
	}
	me := f.Comm().RankOf(r)
	nranks := f.Comm().Size()
	chunk := fl.ChunkBytes()
	for v := 0; v < fl.Vars; v++ {
		ds, err := w.CreateDataset(fmt.Sprintf("unk%02d", v), chunk*int64(nranks))
		if err != nil {
			return err
		}
		off := int64(me) * chunk
		var data []byte
		if payload {
			data = fill(me, ds.Base+off, chunk)
		}
		if err := w.WriteAll(ds, off, data, chunk); err != nil {
			return fmt.Errorf("flashio var %d: %w", v, err)
		}
	}
	return w.Close()
}

// PlotFile writes a (much smaller) plot file with nVars variables at
// reduced precision, used by the flashio command's full three-file mode.
func (fl FlashIO) PlotFile(r *mpi.Rank, f *mpiio.File, nVars int, corners bool, payload bool) error {
	w, err := h5lite.Create(r, f)
	if err != nil {
		return err
	}
	me := f.Comm().RankOf(r)
	nranks := f.Comm().Size()
	zones := fl.ZonesPerBlock
	if corners {
		zones = 17 * 17 * 17 // zone corners instead of centres
	}
	chunk := int64(zones) * 4 * int64(fl.BlocksPerProc) // single precision
	for v := 0; v < nVars; v++ {
		ds, err := w.CreateDataset(fmt.Sprintf("plot%02d", v), chunk*int64(nranks))
		if err != nil {
			return err
		}
		var data []byte
		if payload {
			data = fill(me, ds.Base+int64(me)*chunk, chunk)
		}
		if err := w.WriteAll(ds, int64(me)*chunk, data, chunk); err != nil {
			return err
		}
	}
	return w.Close()
}
