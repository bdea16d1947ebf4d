package adio

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/extent"
	"repro/internal/mpe"
	"repro/internal/mpi"
)

// Hooks are the integration points the paper adds to ROMIO for the
// persistent cache layer (§III-A). Package core implements them; a nil
// Hooks means the stock data path.
type Hooks interface {
	// AtOpenColl runs inside ADIOI_GEN_OpenColl after the global file is
	// open: the cache layer opens the cache file and stores cache_fd. An
	// error makes the implementation revert to the standard path.
	AtOpenColl(f *File) error
	// WriteContig may intercept ADIOI_GEN_WriteContig. It returns true if
	// it handled the write (data went to the cache).
	WriteContig(f *File, data []byte, off, size int64) (bool, error)
	// AtFlush runs inside ADIOI_GEN_Flush: wait for (or trigger and wait
	// for) completion of outstanding cache-sync requests.
	AtFlush(f *File) error
	// AtClose runs inside ADIO_Close before the global file is closed:
	// flush the cache and close/discard the cache file.
	AtClose(f *File) error
}

// ReadHooks is an optional extension of Hooks implementing cache reads,
// the first item of the paper's future work (§VI). A hook set that also
// implements ReadHooks may serve ReadContig from the local cache.
type ReadHooks interface {
	// ReadContig returns true when it served the read from the cache.
	ReadContig(f *File, buf []byte, off, size int64) (bool, error)
}

// HooksFactory builds the hook set for a freshly opened file, typically by
// inspecting the e10_* hints. Returning (nil, nil) means no cache layer.
type HooksFactory func(f *File) (Hooks, error)

// Stats counts per-handle activity, including the collective-buffer memory
// pressure the paper's point (d) is about.
type Stats struct {
	CollWrites     int64 // collective write calls
	CollRounds     int64 // two-phase rounds executed
	IndepWrites    int64 // independent write calls
	BytesExchanged int64 // bytes this rank sent during data shuffle
	BytesWritten   int64 // bytes this rank wrote via WriteContig
	PeakBufBytes   int64 // peak collective buffer allocation on this rank
	SievedWrites   int64 // read-modify-write cycles in write data sieving
	SievedReads    int64 // sieved windows in read data sieving
	FailoverEpochs int64 // resilient-write membership epochs beyond the first
	CacheFallback  bool  // cache open failed, reverted to standard path
}

// File is one rank's open ADIO file (ADIO_File / MPI file handle).
type File struct {
	rank    *mpi.Rank
	comm    *mpi.Comm
	path    string
	hints   *Hints
	driver  Driver
	backend DriverFile
	hooks   Hooks
	log     *mpe.Log
	aggList []int // comm ranks acting as aggregators, shared read-only (see placeAggregators)
	myAgg   int   // my index in aggList, or -1
	atomic  bool
	closed  bool
	round   roundPlan // the two-phase drivers' reused round plan
	buf     []byte    // the collective buffer (see collBuf)

	resilCall int // resilient collective-write call counter (epoch comm scoping)

	Stats Stats
}

// OpenArgs bundles the parameters of a collective open.
type OpenArgs struct {
	Comm     *mpi.Comm
	Registry *Registry
	Path     string
	Create   bool
	Info     mpi.Info
	Hooks    HooksFactory
	Log      *mpe.Log // optional per-rank MPE log
}

// OpenColl is ADIOI_GEN_OpenColl: a collective open. Rank 0 of the
// communicator creates the file, everyone else opens it after a barrier;
// then the cache hook (if any) opens the cache file, reverting to the
// standard path on failure exactly as the paper specifies.
func OpenColl(r *mpi.Rank, a OpenArgs) (*File, error) {
	if a.Comm == nil || a.Registry == nil {
		return nil, errors.New("adio: OpenColl needs a communicator and a registry")
	}
	hints, err := sharedHints(a.Comm, a.Info)
	if err != nil {
		return nil, err
	}
	drv, rel, err := a.Registry.Resolve(a.Path)
	if err != nil {
		return nil, err
	}
	log := a.Log
	if log == nil {
		log = mpe.NewLog()
	}
	span := mpe.StartSpan(r.Now())

	var backend DriverFile
	me := a.Comm.RankOf(r)
	if a.Create {
		if me == 0 {
			backend, err = drv.Open(r, rel, true, hints)
		}
		a.Comm.Barrier(r)
		if me != 0 {
			backend, err = drv.Open(r, rel, false, hints)
		}
	} else {
		backend, err = drv.Open(r, rel, false, hints)
		a.Comm.Barrier(r)
	}
	if err != nil {
		return nil, fmt.Errorf("adio: open %s: %w", a.Path, err)
	}

	f := &File{
		rank:    r,
		comm:    a.Comm,
		path:    rel,
		hints:   hints,
		driver:  drv,
		backend: backend,
		log:     log,
		aggList: placeAggregators(a.Comm, hints),
	}
	f.myAgg = aggIndex(f.aggList, me)
	if a.Hooks != nil {
		// Paper: "If for any reason the open of the cache file fails, the
		// implementation reverts to standard open."
		switch h, err := a.Hooks(f); {
		case err != nil:
			f.Stats.CacheFallback = true
		case h != nil:
			if err := h.AtOpenColl(f); err != nil {
				f.Stats.CacheFallback = true
			} else {
				f.hooks = h
			}
		}
	}
	span.End(log, mpe.PhaseOpen, r.Now())
	return f, nil
}

// hintsKey keys the parsed hint sets memoized on a communicator.
type hintsKey struct{}

// parsedHints is one Info content and the Hints parsed from it.
type parsedHints struct {
	info  mpi.Info // a private copy, so a caller reusing its map cannot alias it
	hints *Hints
}

// sharedHints parses info once per communicator and Info content: every
// rank of a collective open whose Info is equal to one already parsed on c
// shares that *Hints. A different Info gets its own parse; an invalid one
// is parsed, and fails, on every rank. Sharing is safe because a Hints and
// its Extra are read-only once ParseHints returns: nothing may mutate them.
func sharedHints(c *mpi.Comm, info mpi.Info) (*Hints, error) {
	memo := c.Memo(hintsKey{}, func() any { return new([]parsedHints) }).(*[]parsedHints)
	for _, p := range *memo {
		if maps.Equal(p.info, info) {
			return p.hints, nil
		}
	}
	h, err := ParseHints(info, c.Size())
	if err != nil {
		return nil, err
	}
	*memo = append(*memo, parsedHints{info: maps.Clone(info), hints: h})
	return h, nil
}

// placementKey keys the aggregator placement memoized on a communicator
// by the hints it depends on: cb_nodes and cb_config_list.
type placementKey struct{ nodes, perNode int }

// placeAggregators returns the ranks of c acting as cb_nodes aggregators,
// in ascending order: packed per cb_config_list "*:N" when that hint is
// set, spread over the communicator otherwise. The placement is computed
// once per communicator and hint pair and shared read-only by every
// caller: at open and in every failover epoch's plan.
func placeAggregators(c *mpi.Comm, h *Hints) []int {
	return c.Memo(placementKey{h.CBNodes, h.CBPerNode}, func() any {
		if h.CBPerNode > 0 {
			return aggregatorRanksPacked(c, h.CBNodes, h.CBPerNode)
		}
		return aggregatorRanks(c.Size(), h.CBNodes)
	}).([]int)
}

// aggIndex returns me's index in the ascending aggregator list, or -1.
func aggIndex(aggList []int, me int) int {
	if i, ok := slices.BinarySearch(aggList, me); ok {
		return i
	}
	return -1
}

// aggregatorRanks spreads naggs aggregators evenly over the communicator.
// With node-major rank placement this puts consecutive aggregators on
// distinct nodes, matching ROMIO's default cb_config_list behaviour.
func aggregatorRanks(commSize, naggs int) []int {
	if naggs > commSize {
		naggs = commSize
	}
	out := make([]int, naggs)
	for i := range out {
		out[i] = i * commSize / naggs
	}
	return out
}

// aggregatorRanksPacked implements the cb_config_list "*:N" placement: fill
// nodes in comm-rank order, taking at most perNode aggregator ranks from
// each node, until naggs aggregators are chosen. Packing multiple
// aggregators per node makes them share that node's NIC and local SSD.
func aggregatorRanksPacked(c *mpi.Comm, naggs, perNode int) []int {
	if naggs > c.Size() {
		naggs = c.Size()
	}
	var out []int
	taken := make(map[int]int) // node id -> aggregators placed
	for i := 0; i < c.Size() && len(out) < naggs; i++ {
		node := c.Member(i).Node().ID()
		if taken[node] >= perNode {
			continue
		}
		taken[node]++
		out = append(out, i)
	}
	return out
}

// Rank returns the owning rank.
func (f *File) Rank() *mpi.Rank { return f.rank }

// Comm returns the file's communicator.
func (f *File) Comm() *mpi.Comm { return f.comm }

// Path returns the driver-relative path.
func (f *File) Path() string { return f.path }

// Hints returns the normalized hint set.
func (f *File) Hints() *Hints { return f.hints }

// Log returns the rank's MPE log for this file.
func (f *File) Log() *mpe.Log { return f.log }

// Driver returns the backing driver.
func (f *File) Driver() Driver { return f.driver }

// Backend returns the rank's backend handle (used by the cache sync path
// to write through to the global file).
func (f *File) Backend() DriverFile { return f.backend }

// InstalledHooks returns the active hook set (nil on the standard path),
// letting callers inspect cache-layer statistics.
func (f *File) InstalledHooks() Hooks { return f.hooks }

// IsAggregator reports whether this rank is one of the cb_nodes
// aggregators for this file.
func (f *File) IsAggregator() bool { return f.myAgg >= 0 }

// AggregatorIndex returns this rank's position in the aggregator list, or
// -1 when it is not an aggregator.
func (f *File) AggregatorIndex() int { return f.myAgg }

// Aggregators returns the comm ranks of the aggregators.
func (f *File) Aggregators() []int {
	out := make([]int, len(f.aggList))
	copy(out, f.aggList)
	return out
}

// SetAtomicity toggles MPI_File_set_atomicity.
func (f *File) SetAtomicity(v bool) { f.atomic = v }

// Atomicity reports the current atomic mode.
func (f *File) Atomicity() bool { return f.atomic }

// WriteContig is ADIOI_GEN_WriteContig: the cache hook may intercept it;
// otherwise data goes straight to the backend file system.
func (f *File) WriteContig(data []byte, off, size int64) error {
	if f.hooks != nil {
		handled, err := f.hooks.WriteContig(f, data, off, size)
		if err != nil {
			return err
		}
		if handled {
			f.Stats.BytesWritten += size
			f.metrics().Counter("adio_write_bytes_total", layerLabel).Add(size)
			return nil
		}
	}
	if err := f.backend.WriteContig(f.rank.Proc(), data, off, size); err != nil {
		return err
	}
	f.Stats.BytesWritten += size
	f.metrics().Counter("adio_write_bytes_total", layerLabel).Add(size)
	return nil
}

// ReadContig reads from the global file. The base system does not read
// from the cache (§III-B of the paper); when the cache layer implements
// the optional ReadHooks extension (future work implemented here), locally
// cached extents may be served from the SSD instead.
func (f *File) ReadContig(buf []byte, off, size int64) error {
	if rh, ok := f.hooks.(ReadHooks); ok {
		if handled, err := rh.ReadContig(f, buf, off, size); err == nil && handled {
			return nil
		}
	}
	return f.backend.ReadContig(f.rank.Proc(), buf, off, size)
}

// Flush is ADIOI_GEN_Flush: drain the cache (when present), then flush the
// backend (MPI_File_sync semantics).
func (f *File) Flush() error {
	if f.hooks != nil {
		if err := f.hooks.AtFlush(f); err != nil {
			return err
		}
	}
	f.backend.Flush(f.rank.Proc())
	return nil
}

// collBuf returns the file's collective buffer cut to n bytes. It is the
// one staging area for two-phase and sieved windows, as ROMIO's
// cb_buffer_size buffer is, so a window's bytes last until the next
// window. It comes from the World's pool, grows to the largest window
// served (handing the smaller one back), only payload mode asks for it,
// and Close returns it to the pool for the next file. A message never
// points into it: payloads are copied into messages of their own.
func (f *File) collBuf(n int64) []byte {
	if int64(cap(f.buf)) < n {
		pool := f.rank.World().Pool()
		pool.Put(f.buf)
		f.buf = pool.Get(int(n))
	}
	return f.buf[:n]
}

// sievesHoles reports whether a write whose window has holes may fill them
// by read-modify-write of the whole window (data sieving). Not under a
// hook: the global file may hold stale bytes for a hole whose current
// bytes sit in a write-back cache, possibly on another node, and writing
// the window back through the hook would overwrite them.
func (f *File) sievesHoles() bool { return f.hooks == nil }

// Close is ADIO_Close: complete all cache synchronisation, close the cache
// file, then close the global file. Collective semantics (the final
// barrier) are provided by the mpiio layer.
func (f *File) Close() error {
	if f.closed {
		return errors.New("adio: file closed twice")
	}
	span := mpe.StartSpan(f.rank.Now())
	var err error
	if f.hooks != nil {
		err = f.hooks.AtClose(f)
	}
	f.backend.Close(f.rank.Proc())
	f.rank.World().Pool().Put(f.buf)
	f.closed, f.buf = true, nil
	span.End(f.log, mpe.PhaseClose, f.rank.Now())
	return err
}

// validateSegs checks that segments are sorted, non-overlapping and
// non-empty, and returns the total byte count.
func validateSegs(segs []extent.Extent) (int64, error) {
	var total int64
	if !sort.SliceIsSorted(segs, func(i, j int) bool { return segs[i].Off < segs[j].Off }) {
		return 0, errors.New("adio: segments not sorted by offset")
	}
	for i, s := range segs {
		if s.Len <= 0 {
			return 0, fmt.Errorf("adio: segment %d empty", i)
		}
		if i > 0 && segs[i-1].End() > s.Off {
			return 0, fmt.Errorf("adio: segments %d and %d overlap", i-1, i)
		}
		total += s.Len
	}
	return total, nil
}
