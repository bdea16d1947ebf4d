package adio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// cluster bundles a small simulated machine for adio tests.
type cluster struct {
	k   *sim.Kernel
	fab *netsim.Fabric
	fs  *pfs.System
	w   *mpi.World
	reg *Registry
}

func newCluster(t *testing.T, seed int64, nodes, perNode int, factory store.Factory) *cluster {
	t.Helper()
	k := sim.NewKernel(seed)
	fab := netsim.New(k, netsim.Config{
		Nodes: nodes, InjRate: 3 * sim.GBps, EjeRate: 3 * sim.GBps,
		Latency: 2 * sim.Microsecond, MemRate: 6 * sim.GBps,
	})
	cfg := pfs.DefaultConfig()
	cfg.TargetJitter = nil // deterministic content tests
	fs := pfs.New(k, cfg, factory)
	w := mpi.NewWorld(k, fab, perNode)
	w.SetPool(bufpool.New())
	clients := make([]*pfs.Client, nodes)
	for i := 0; i < nodes; i++ {
		clients[i] = fs.NewClient(fab.Node(i))
	}
	drv := NewUFSDriver(func(n int) *pfs.Client { return clients[n] })
	reg := NewRegistry(drv)
	reg.Mount("beegfs", NewBeeGFSDriver(func(n int) *pfs.Client { return clients[n] }))
	return &cluster{k: k, fab: fab, fs: fs, w: w, reg: reg}
}

func TestParseHintsDefaults(t *testing.T) {
	h, err := ParseHints(nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	if h.CBWrite != HintAutomatic || h.CBNodes != 512 ||
		h.CBBufferSize != DefaultCBBufferSize || h.IndWrBufferSize != DefaultIndWrBufferSize {
		t.Fatalf("defaults wrong: %+v", h)
	}
}

// TestParseHintsTableI exercises every hint of Table I of the paper.
func TestParseHintsTableI(t *testing.T) {
	info := mpi.Info{
		HintCBWrite:         "enable",
		HintCBRead:          "disable",
		HintCBBufferSize:    "4194304",
		HintCBNodes:         "16",
		HintStripingFactor:  "4",
		HintStripingUnit:    "4194304",
		HintIndWrBufferSize: "524288",
		"e10_cache":         "enable", // unknown here; must pass through
	}
	h, err := ParseHints(info, 512)
	if err != nil {
		t.Fatal(err)
	}
	if h.CBWrite != "enable" || h.CBRead != "disable" || h.CBNodes != 16 ||
		h.CBBufferSize != 4<<20 || h.StripingFactor != 4 || h.StripingUnit != 4<<20 ||
		h.IndWrBufferSize != 512<<10 {
		t.Fatalf("parsed = %+v", h)
	}
	if v, ok := h.Extra.Get("e10_cache"); !ok || v != "enable" {
		t.Fatal("unknown hints must be preserved in Extra")
	}
	echo := h.Echo()
	if echo[HintCBNodes] != "16" || echo["e10_cache"] != "enable" {
		t.Fatalf("echo = %v", echo)
	}
}

func TestParseHintsClampsAndRejects(t *testing.T) {
	h, err := ParseHints(mpi.Info{HintCBNodes: "10000"}, 64)
	if err != nil || h.CBNodes != 64 {
		t.Fatalf("cb_nodes must clamp to comm size: %v %+v", err, h)
	}
	for _, bad := range []mpi.Info{
		{HintCBWrite: "maybe"},
		{HintCBNodes: "-3"},
		{HintCBBufferSize: "zero"},
	} {
		if _, err := ParseHints(bad, 64); err == nil {
			t.Fatalf("expected error for %v", bad)
		}
	}
}

func TestGenFileDomainsPartitionExactly(t *testing.T) {
	f := func(min uint16, length uint16, naggs uint8) bool {
		if length == 0 {
			return true
		}
		lo := int64(min)
		hi := lo + int64(length) - 1
		n := int(naggs%16) + 1
		fds := genFileDomains(lo, hi, n)
		cur := lo
		for _, fd := range fds {
			if fd.Off != cur || fd.Len <= 0 {
				return false
			}
			cur = fd.End()
		}
		return cur == hi+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlignedFileDomainsRespectStripes(t *testing.T) {
	const unit = 1 << 20
	fds := alignedFileDomains(100, 10<<20-1, 4, unit)
	cur := int64(100)
	for i, fd := range fds {
		if fd.Off != cur {
			t.Fatalf("domain %d starts at %d, want %d", i, fd.Off, cur)
		}
		if i > 0 && fd.Off%unit != 0 {
			t.Fatalf("interior domain %d not stripe aligned: %v", i, fd)
		}
		cur = fd.End()
	}
	if cur != 10<<20 {
		t.Fatalf("domains end at %d", cur)
	}
}

func TestAggregatorRanksSpread(t *testing.T) {
	aggs := aggregatorRanks(512, 64)
	if len(aggs) != 64 || aggs[0] != 0 || aggs[1] != 8 || aggs[63] != 504 {
		t.Fatalf("aggs = %v...", aggs[:4])
	}
	aggs = aggregatorRanks(512, 8)
	if aggs[1] != 64 {
		t.Fatalf("8-agg stride wrong: %v", aggs)
	}
	if n := len(aggregatorRanks(4, 100)); n != 4 {
		t.Fatalf("aggregators must clamp to comm size, got %d", n)
	}
}

// writeColl runs one collective write across the whole world and returns
// the resulting file meta.
func writeColl(t *testing.T, cl *cluster, info mpi.Info, pattern func(rank int) ([]extent.Extent, []byte)) *pfs.FileMeta {
	t.Helper()
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{
			Comm: cl.w.Comm(), Registry: cl.reg, Path: "out.dat", Create: true, Info: info,
		})
		if err != nil {
			t.Error(err)
			return
		}
		segs, data := pattern(r.ID())
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := cl.fs.Lookup("out.dat")
	if meta == nil {
		t.Fatal("file not created")
	}
	return meta
}

func TestCollectiveWriteInterleavedPattern(t *testing.T) {
	// 8 ranks write a block-cyclic pattern: rank r owns bytes
	// [i*8k + r*1k, +1k) for i in 0..3 — heavily interleaved.
	const chunk, cycles = 1024, 4
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	nranks := cl.w.Size()
	meta := writeColl(t, cl, mpi.Info{HintCBNodes: "2", HintCBBufferSize: "4096"},
		func(rank int) ([]extent.Extent, []byte) {
			var segs []extent.Extent
			var data []byte
			for i := 0; i < cycles; i++ {
				off := int64(i*nranks*chunk + rank*chunk)
				segs = append(segs, extent.Extent{Off: off, Len: chunk})
				for b := 0; b < chunk; b++ {
					data = append(data, byte(rank*31+i*7+b))
				}
			}
			return segs, data
		})
	if meta.Size() != int64(cycles*nranks*chunk) {
		t.Fatalf("file size = %d", meta.Size())
	}
	// Verify every byte.
	got := make([]byte, meta.Size())
	meta.Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for rank := 0; rank < nranks; rank++ {
		for i := 0; i < cycles; i++ {
			off := i*nranks*chunk + rank*chunk
			for b := 0; b < chunk; b++ {
				want := byte(rank*31 + i*7 + b)
				if got[off+b] != want {
					t.Fatalf("byte %d = %d, want %d", off+b, got[off+b], want)
				}
			}
		}
	}
}

func TestCollectiveWriteRecordsPhases(t *testing.T) {
	cl := newCluster(t, 1, 4, 2, store.NewMem)
	logsSeen := 0
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{
			Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBNodes: "2", HintCBWrite: "enable"},
		})
		if err != nil {
			t.Error(err)
			return
		}
		seg := []extent.Extent{{Off: int64(r.ID()) * 4096, Len: 4096}}
		if err := f.WriteStridedColl(seg, nil); err != nil {
			t.Error(err)
		}
		log := f.Log()
		if log.Total("shuffle_all2all") <= 0 || log.Total("post_write") <= 0 {
			t.Errorf("rank %d: missing phases: a2a=%v pw=%v", r.ID(),
				log.Total("shuffle_all2all"), log.Total("post_write"))
		}
		if f.IsAggregator() && log.Total("write") <= 0 {
			t.Errorf("aggregator %d recorded no write time", r.ID())
		}
		logsSeen++
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if logsSeen != cl.w.Size() {
		t.Fatalf("only %d ranks ran", logsSeen)
	}
}

func TestNonInterleavedFallsBackToIndependent(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	var indep, coll int64
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true})
		if err != nil {
			t.Error(err)
			return
		}
		// Disjoint, ordered blocks: not interleaved.
		seg := []extent.Extent{{Off: int64(r.ID()) * 1 << 20, Len: 1 << 20}}
		if err := f.WriteStridedColl(seg, nil); err != nil {
			t.Error(err)
		}
		indep += f.Stats.IndepWrites
		coll += f.Stats.CollRounds
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if indep == 0 || coll != 0 {
		t.Fatalf("want independent path (indep=%d coll=%d)", indep, coll)
	}
}

func TestCBWriteEnableForcesCollective(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	var coll int64
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "1"}})
		seg := []extent.Extent{{Off: int64(r.ID()) * 4096, Len: 4096}}
		if err := f.WriteStridedColl(seg, nil); err != nil {
			t.Error(err)
		}
		coll += f.Stats.CollRounds
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if coll == 0 {
		t.Fatal("romio_cb_write=enable must force the collective path")
	}
}

func TestCBWriteDisableForcesIndependent(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	var indep int64
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBWrite: "disable"}})
		// Interleaved pattern that would otherwise go collective.
		seg := []extent.Extent{{Off: int64(r.ID()) * 512, Len: 512}, {Off: 8192 + int64(r.ID())*512, Len: 512}}
		if err := f.WriteStridedColl(seg, nil); err != nil {
			t.Error(err)
		}
		indep += f.Stats.IndepWrites
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if indep == 0 {
		t.Fatal("romio_cb_write=disable must force the independent path")
	}
}

func TestMultiRoundUsesCollectiveBufferSize(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	var rounds int64
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "1", HintCBBufferSize: "1024"}})
		// 16 KB total through a 1 KB collective buffer => 16 rounds.
		seg := []extent.Extent{{Off: int64(r.ID()) * 2048, Len: 2048},
			{Off: 8192 + int64(r.ID())*2048, Len: 2048}}
		if err := f.WriteStridedColl(seg, nil); err != nil {
			t.Error(err)
		}
		if f.IsAggregator() {
			rounds = f.Stats.CollRounds
		}
		if buf := f.Stats.PeakBufBytes; f.IsAggregator() && buf > 1024 {
			t.Errorf("collective buffer exceeded cb_buffer_size: %d", buf)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 12 {
		t.Fatalf("expected ~16 rounds, got %d", rounds)
	}
}

// The central correctness property: for random interleaved patterns, a
// collective write through the full two-phase machinery produces exactly
// the same bytes as a direct serial write.
func TestCollectiveWriteMatchesSerialProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(3) + 1
		perNode := rng.Intn(3) + 1
		nranks := nodes * perNode
		// Generate a random non-overlapping interleaved pattern.
		type rankPat struct {
			segs []extent.Extent
			data []byte
		}
		pats := make([]rankPat, nranks)
		ref := store.NewMem()
		off := int64(rng.Intn(1000))
		nPieces := rng.Intn(20) + 5
		for i := 0; i < nPieces; i++ {
			r := rng.Intn(nranks)
			l := int64(rng.Intn(3000) + 1)
			piece := make([]byte, l)
			rng.Read(piece)
			pats[r].segs = append(pats[r].segs, extent.Extent{Off: off, Len: l})
			pats[r].data = append(pats[r].data, piece...)
			ref.WriteAt(store.Bytes(piece, off), off, l)
			off += l + int64(rng.Intn(500))
		}
		cl := newCluster(t, seed, nodes, perNode, store.NewMem)
		info := mpi.Info{
			HintCBWrite:      "enable",
			HintCBNodes:      []string{"1", "2", "4"}[rng.Intn(3)],
			HintCBBufferSize: []string{"512", "4096", "1048576"}[rng.Intn(3)],
		}
		meta := writeColl(t, cl, info, func(rank int) ([]extent.Extent, []byte) {
			return pats[rank].segs, pats[rank].data
		})
		if meta.Size() != ref.Size() {
			t.Logf("size %d != ref %d", meta.Size(), ref.Size())
			return false
		}
		got := make([]byte, meta.Size())
		want := make([]byte, ref.Size())
		meta.Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
		ref.ReadAt(store.Bytes(want, 0), 0, int64(len(want)))
		return bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBeeGFSDriverAlignsDomains(t *testing.T) {
	cl := newCluster(t, 1, 2, 1, store.NewMem)
	drv, _, err := cl.reg.Resolve("beegfs:x")
	if err != nil {
		t.Fatal(err)
	}
	h := &Hints{StripingUnit: 1 << 20}
	fds := drv.FileDomains(0, 8<<20-1, 3, h)
	for i, fd := range fds[:len(fds)-1] {
		if fd.End()%(1<<20) != 0 {
			t.Fatalf("domain %d boundary not aligned: %v", i, fd)
		}
	}
}

// TestIndependentStridedWriteBytes writes a dense strided pattern over
// existing bytes: each covered run (adjacent segments merge) reaches the
// file in one write, and the holes keep the bytes that were there.
func TestIndependentStridedWriteBytes(t *testing.T) {
	cl := newCluster(t, 1, 1, 1, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true})
		old := bytes.Repeat([]byte{0xEE}, 50*120)
		if err := f.WriteContig(store.Bytes(old, 0), 0, int64(len(old))); err != nil {
			t.Fatal(err)
		}
		// Dense hole-y pattern: 100 bytes written, 20-byte holes; the
		// first two segments are adjacent and form one run.
		segs := []extent.Extent{{Off: 0, Len: 60}, {Off: 60, Len: 40}}
		for i := 1; i < 50; i++ {
			segs = append(segs, extent.Extent{Off: int64(i * 120), Len: 100})
		}
		data := make([]byte, 0, 50*100)
		for i := 0; i < 50; i++ {
			for b := 0; b < 100; b++ {
				data = append(data, byte(i+b))
			}
		}
		before := f.Stats.BytesWritten
		if err := f.WriteStrided(segs, data); err != nil {
			t.Fatal(err)
		}
		if got := f.Stats.BytesWritten - before; got != int64(len(data)) {
			t.Errorf("wrote %d bytes, want exactly the %d segment bytes", got, len(data))
		}
		got := make([]byte, len(old))
		if err := f.ReadContig(store.Bytes(got, 0), 0, int64(len(got))); err != nil {
			t.Fatal(err)
		}
		for off, b := range got {
			i, in := off/120, off%120
			want := byte(0xEE)
			if in < 100 {
				want = byte(i + in)
			}
			if b != want {
				t.Fatalf("byte %d = %#x, want %#x", off, b, want)
			}
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidateSegsRejectsBadInput(t *testing.T) {
	if _, err := validateSegs([]extent.Extent{{Off: 10, Len: 5}, {Off: 0, Len: 5}}); err == nil {
		t.Fatal("unsorted segments must be rejected")
	}
	if _, err := validateSegs([]extent.Extent{{Off: 0, Len: 10}, {Off: 5, Len: 10}}); err == nil {
		t.Fatal("overlapping segments must be rejected")
	}
	if _, err := validateSegs([]extent.Extent{{Off: 0, Len: 0}}); err == nil {
		t.Fatal("empty segments must be rejected")
	}
}

func TestRegistryResolution(t *testing.T) {
	cl := newCluster(t, 1, 1, 1, store.NewMem)
	if _, _, err := cl.reg.Resolve("nfs:file"); err == nil {
		t.Fatal("unknown prefix must fail")
	}
	d, rest, err := cl.reg.Resolve("beegfs:dir/file")
	if err != nil || !d.(*UFSDriver).aligned || rest != "dir/file" {
		t.Fatalf("resolve: %v %v %v", d, rest, err)
	}
	d, rest, err = cl.reg.Resolve("plain")
	if err != nil || d.(*UFSDriver).aligned || rest != "plain" {
		t.Fatalf("default resolve: %v %v %v", d, rest, err)
	}
}

func TestZeroDataRanksParticipate(t *testing.T) {
	// Half the ranks write nothing; collective must still complete and the
	// written half's data must land.
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	meta := writeColl(t, cl, mpi.Info{HintCBWrite: "enable", HintCBNodes: "2"},
		func(rank int) ([]extent.Extent, []byte) {
			if rank%2 == 1 {
				return nil, nil
			}
			// Interleave the two writers.
			return []extent.Extent{{Off: int64(rank) * 256, Len: 256},
				{Off: 2048 + int64(rank)*256, Len: 256}}, nil
		})
	if meta.Store().Written().TotalBytes() != 1024 {
		t.Fatalf("written bytes = %d", meta.Store().Written().TotalBytes())
	}
}

func TestCBConfigListPackedPlacement(t *testing.T) {
	cl := newCluster(t, 1, 4, 4, store.NewMem) // 16 ranks, 4 per node
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBNodes: "8", HintCBConfigList: "*:4"}})
		if err != nil {
			t.Error(err)
			return
		}
		aggs := f.Aggregators()
		// "*:4" with 8 aggregators packs ranks 0..7 (nodes 0 and 1).
		for i, a := range aggs {
			if a != i {
				t.Errorf("packed aggs = %v", aggs)
				break
			}
		}
		if f.Hints().Echo()[HintCBConfigList] != "*:4" {
			t.Error("cb_config_list must echo back")
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCBConfigListOnePerNodeMatchesSpread(t *testing.T) {
	cl := newCluster(t, 1, 4, 4, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBNodes: "4", HintCBConfigList: "*:1"}})
		if err != nil {
			t.Error(err)
			return
		}
		aggs := f.Aggregators()
		want := []int{0, 4, 8, 12} // one per node
		for i := range want {
			if aggs[i] != want[i] {
				t.Errorf("aggs = %v, want %v", aggs, want)
				break
			}
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCBConfigListRejectsBadValues also rejects input after "*:N" and a
// space before N: a value is "*:" and a whole decimal count, nothing else.
func TestCBConfigListRejectsBadValues(t *testing.T) {
	for _, bad := range []string{"node1:2", "*:0", "*:x", "", "*:3x", "*: 3"} {
		_, err := ParseHints(mpi.Info{HintCBConfigList: bad}, 8)
		if want := fmt.Sprintf("adio: hint cb_config_list: unsupported value %q (want \"*:N\")", bad); err == nil || err.Error() != want {
			t.Errorf("value %q: error %v, want %s", bad, err, want)
		}
	}
}

// TestIndependentStridedReadBytes reads a dense hole-y subset of known
// content back into segment order.
func TestIndependentStridedReadBytes(t *testing.T) {
	cl := newCluster(t, 1, 1, 1, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true})
		content := make([]byte, 12000)
		for i := range content {
			content[i] = byte(i % 251)
		}
		if err := f.WriteContig(store.Bytes(content, 0), 0, int64(len(content))); err != nil {
			t.Error(err)
			return
		}
		// The first two segments are adjacent and form one run.
		segs := []extent.Extent{{Off: 0, Len: 100}, {Off: 100, Len: 50}}
		total := int64(150)
		for i := 1; i < 50; i++ {
			segs = append(segs, extent.Extent{Off: int64(i * 200), Len: 150})
			total += 150
		}
		buf := make([]byte, total)
		if err := f.ReadStrided(segs, buf); err != nil {
			t.Error(err)
			return
		}
		cursor := 0
		for _, s := range segs {
			for b := int64(0); b < s.Len; b++ {
				if buf[cursor] != byte((s.Off+b)%251) {
					t.Fatalf("strided read wrong at seg %v byte %d", s, b)
				}
				cursor++
			}
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveWriteHolesPreserveExistingData(t *testing.T) {
	// Fragmented-but-dense coverage triggers the read-modify-write path in
	// the aggregator; bytes in the holes must survive.
	cl := newCluster(t, 1, 2, 1, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "1"}})
		if err != nil {
			t.Error(err)
			return
		}
		// Pre-fill the file with 0xEE via rank 0.
		if cl.w.Comm().RankOf(r) == 0 {
			pre := bytes.Repeat([]byte{0xEE}, 8192)
			if err := f.WriteContig(store.Bytes(pre, 0), 0, int64(len(pre))); err != nil {
				t.Error(err)
			}
		}
		cl.w.Comm().Barrier(r)
		// Interleaved dense pattern with 64-byte holes every 192 bytes:
		// rank 0 gets offsets 0,192,384..., rank 1 offsets 64,256,...
		var segs []extent.Extent
		var data []byte
		for i := 0; i < 16; i++ {
			off := int64(i*192 + r.ID()*64)
			segs = append(segs, extent.Extent{Off: off, Len: 64})
			data = append(data, bytes.Repeat([]byte{byte(r.ID() + 1)}, 64)...)
		}
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		if f.IsAggregator() && f.Stats.SievedWrites == 0 {
			t.Error("dense hole-y window must use read-modify-write")
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	cl.fs.Lookup("f").Store().ReadAt(store.Bytes(got, 0), 0, int64(len(got)))
	for i := 0; i < 16; i++ {
		base := i * 192
		for b := 0; b < 64; b++ {
			if got[base+b] != 1 {
				t.Fatalf("rank0 bytes wrong at %d: %x", base+b, got[base+b])
			}
			if got[base+64+b] != 2 {
				t.Fatalf("rank1 bytes wrong at %d: %x", base+64+b, got[base+64+b])
			}
			if got[base+128+b] != 0xEE {
				t.Fatalf("hole clobbered at %d: %x", base+128+b, got[base+128+b])
			}
		}
	}
}

func TestCollectiveWriteStats(t *testing.T) {
	cl := newCluster(t, 1, 2, 2, store.NewMem)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, _ := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: "f", Create: true,
			Info: mpi.Info{HintCBWrite: "enable", HintCBNodes: "2"}})
		// Interleaved 1 KB pieces.
		segs := []extent.Extent{{Off: int64(r.ID()) * 1024, Len: 1024},
			{Off: 8192 + int64(r.ID())*1024, Len: 1024}}
		if err := f.WriteStridedColl(segs, nil); err != nil {
			t.Error(err)
		}
		if f.Stats.CollWrites != 1 {
			t.Errorf("coll writes = %d", f.Stats.CollWrites)
		}
		// Non-aggregators shipped their bytes over the network.
		if !f.IsAggregator() && f.Stats.BytesExchanged < 2048 {
			t.Errorf("rank %d exchanged %d bytes", r.ID(), f.Stats.BytesExchanged)
		}
		_ = f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}
