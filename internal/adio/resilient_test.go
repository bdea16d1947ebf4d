package adio

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
)

// resilientInfo arms the failover-capable collective write path.
var resilientInfo = mpi.Info{
	HintCBNodes:        "2",
	HintCBBufferSize:   "4096",
	HintResilientWrite: "enable",
}

// blockCyclic returns rank r's segments of an interleaved pattern: cycles
// chunks of chunk bytes each, with a per-byte value derived from (rank,
// cycle, offset) so any misplaced byte is detectable.
func blockCyclic(nranks, rank, chunk, cycles int) ([]extent.Extent, []byte) {
	var segs []extent.Extent
	var data []byte
	for i := 0; i < cycles; i++ {
		off := int64(i*nranks*chunk + rank*chunk)
		segs = append(segs, extent.Extent{Off: off, Len: int64(chunk)})
		for b := 0; b < chunk; b++ {
			data = append(data, byte(rank*31+i*7+b))
		}
	}
	return segs, data
}

// TestResilientWriteFaultFree checks the degraded-mode path is a drop-in
// replacement when nothing fails: same bytes, no failover epochs.
func TestResilientWriteFaultFree(t *testing.T) {
	const chunk, cycles = 1024, 4
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	cl.w.SetCollTimeout(50 * sim.Millisecond)
	nranks := cl.w.Size()
	meta := writeColl(t, cl, resilientInfo, func(rank int) ([]extent.Extent, []byte) {
		return blockCyclic(nranks, rank, chunk, cycles)
	})
	got := make([]byte, meta.Size())
	meta.Store().ReadAt(got, 0)
	for rank := 0; rank < nranks; rank++ {
		segs, data := blockCyclic(nranks, rank, chunk, cycles)
		var cursor int64
		for _, s := range segs {
			for b := int64(0); b < s.Len; b++ {
				if got[s.Off+b] != data[cursor+b] {
					t.Fatalf("byte %d = %d, want %d", s.Off+b, got[s.Off+b], data[cursor+b])
				}
			}
			cursor += s.Len
		}
	}
}

// TestResilientWriteSurvivesAggregatorCrash is the acceptance scenario of
// the degraded-mode work: an aggregator node is killed in the middle of
// the two-phase loop, the survivors detect it via collective timeout,
// recompute file domains among themselves, and replay every unacked
// extent. Every surviving rank's bytes must reach the file intact (byte
// conservation across failover).
func TestResilientWriteSurvivesAggregatorCrash(t *testing.T) {
	const chunk, cycles = 16 << 10, 4
	cl := newCluster(t, 7, 4, 2, store.NewMem)
	// The timeout must exceed one round's aggregator I/O (~2ms at this
	// PFS config) or healthy rounds get misdiagnosed as failures.
	cl.w.SetCollTimeout(50 * sim.Millisecond)
	nranks := cl.w.Size()

	// With cb_nodes=2 over 8 ranks the aggregators are world ranks 0 and 4
	// (nodes 0 and 2). Kill node 2 once the two-phase loop is in flight:
	// the write starts after the (serialized) opens at ~2.4ms and runs for
	// well over 100ms of virtual time, so 20ms lands mid-round.
	const crashNode = 2
	crashAt := 20 * sim.Millisecond
	cl.k.After(crashAt, func() { cl.w.KillNode(crashNode) })

	var mu sync.Mutex
	var failovers int64
	survivorErrs := map[int]error{}
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{
			Comm: cl.w.Comm(), Registry: cl.reg, Path: "out.dat", Create: true, Info: resilientInfo,
		})
		if err != nil {
			t.Error(err)
			return
		}
		segs, data := blockCyclic(nranks, r.ID(), chunk, cycles)
		werr := f.WriteStridedColl(segs, data)
		mu.Lock()
		survivorErrs[r.ID()] = werr
		if f.Stats.FailoverEpochs > failovers {
			failovers = f.Stats.FailoverEpochs
		}
		mu.Unlock()
		f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if failovers == 0 {
		t.Fatal("crash did not trigger a failover epoch; crash time missed the write window")
	}
	for id, werr := range survivorErrs {
		if cl.w.Alive(id) && werr != nil {
			t.Fatalf("surviving rank %d: write failed: %v", id, werr)
		}
	}

	meta := cl.fs.Lookup("out.dat")
	if meta == nil {
		t.Fatal("file not created")
	}
	got := make([]byte, int64(cycles*nranks*chunk))
	meta.Store().ReadAt(got, 0)
	for rank := 0; rank < nranks; rank++ {
		if !cl.w.Alive(rank) {
			continue // a dead rank's unsent data is legitimately lost
		}
		segs, data := blockCyclic(nranks, rank, chunk, cycles)
		var cursor int64
		for _, s := range segs {
			for b := int64(0); b < s.Len; b++ {
				if got[s.Off+b] != data[cursor+b] {
					t.Fatalf("survivor rank %d byte %d = %d, want %d (lost across failover)",
						rank, s.Off+b, got[s.Off+b], data[cursor+b])
				}
			}
			cursor += s.Len
		}
	}
}

// TestResilientWriteDeterministicPerSeed runs the crash scenario twice
// with the same seed and demands identical virtual end times: failover
// must be as replayable as the fault-free path.
func TestResilientWriteDeterministicPerSeed(t *testing.T) {
	run := func() sim.Time {
		const chunk, cycles = 16 << 10, 4
		cl := newCluster(t, 7, 4, 2, store.NewMem)
		cl.w.SetCollTimeout(50 * sim.Millisecond)
		nranks := cl.w.Size()
		cl.k.After(20*sim.Millisecond, func() { cl.w.KillNode(2) })
		if err := cl.w.Run(func(r *mpi.Rank) {
			f, err := OpenColl(r, OpenArgs{
				Comm: cl.w.Comm(), Registry: cl.reg, Path: "out.dat", Create: true, Info: resilientInfo,
			})
			if err != nil {
				t.Error(err)
				return
			}
			segs, data := blockCyclic(nranks, r.ID(), chunk, cycles)
			f.WriteStridedColl(segs, data)
			f.Close()
		}); err != nil {
			t.Fatal(err)
		}
		return cl.k.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("virtual end times differ across identical runs: %v vs %v", a, b)
	}
}

func TestEpochAbortMatchesWrappedError(t *testing.T) {
	for _, cause := range []error{
		&mpi.CollTimeoutError{Op: "alltoall", Missing: []int{8, 9, 15}},
		mpi.ErrRecvTimeout,
	} {
		got := error(&epochAbort{cause})
		if want := fmt.Errorf("%w: %w", errEpochFailed, cause).Error(); got.Error() != want {
			t.Fatalf("Error() = %q, want %q", got.Error(), want)
		}
		if !errors.Is(got, errEpochFailed) || !errors.Is(got, cause) {
			t.Fatalf("%v must match both errEpochFailed and its cause", got)
		}
	}
	got := error(&epochAbort{&mpi.CollTimeoutError{Op: "allreduce", Missing: []int{3}}})
	var cte *mpi.CollTimeoutError
	if !errors.Is(got, mpi.ErrCollTimeout) || !errors.As(got, &cte) || cte.Missing[0] != 3 {
		t.Fatalf("%v must expose its *mpi.CollTimeoutError", got)
	}
}

// TestAggregatorsRunTheRounds checks that the ranks Aggregators reports
// are the ones that run two-phase rounds, for the plain and the failover
// write under spread and cb_config_list packed placement: a rank runs
// rounds exactly when IsAggregator is true.
func TestAggregatorsRunTheRounds(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		for _, configList := range []string{"", "*:2"} {
			name := fmt.Sprintf("resilient=%v/cb_config_list=%q", resilient, configList)
			t.Run(name, func(t *testing.T) {
				cl := newCluster(t, 1, 4, 4, store.NewMem) // 16 ranks, 4 per node
				info := mpi.Info{HintCBWrite: "enable", HintCBNodes: "4", HintCBBufferSize: "4096"}
				if configList != "" {
					info[HintCBConfigList] = configList
				}
				if resilient {
					info[HintResilientWrite] = "enable"
					cl.w.SetCollTimeout(50 * sim.Millisecond)
				}
				n := cl.w.Size()
				isAgg := make([]bool, n)
				rounds := make([]int64, n)
				err := cl.w.Run(func(r *mpi.Rank) {
					f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "aggs.dat", Create: true, Info: info})
					if err != nil {
						t.Error(err)
						return
					}
					segs, data := blockCyclic(n, r.ID(), 1024, 4)
					if err := f.WriteStridedColl(segs, data); err != nil {
						t.Error(err)
					}
					isAgg[r.ID()], rounds[r.ID()] = f.IsAggregator(), f.Stats.CollRounds
					_ = f.Close()
				})
				if err != nil {
					t.Fatal(err)
				}
				for id := range isAgg {
					if isAgg[id] != (rounds[id] > 0) {
						t.Errorf("rank %d: IsAggregator %v but ran %d rounds", id, isAgg[id], rounds[id])
					}
				}
			})
		}
	}
}
