package repro

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/store"
)

// TestFacadeEndToEnd drives the library exactly the way the README's quick
// start does: build a cluster, write a strided shared file collectively
// through the cache, verify content end to end after close.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := Scaled(42, 4, 4)
	cfg.Payload = true
	cluster := NewCluster(cfg)
	world := cluster.World
	comm := world.Comm()

	info := Info{
		HintCBWrite:             "enable",
		HintCBNodes:             "4",
		HintCBBufferSize:        "262144",
		HintE10Cache:            CacheValueEnable,
		HintE10CacheFlushFlag:   FlushImmediate,
		HintE10CacheDiscardFlag: "enable",
	}
	const blockLen = 1024
	nranks := world.Size()
	err := world.Run(func(r *Rank) {
		f, err := cluster.Env.Open(r, comm, "facade.dat", ModeCreate|ModeWrOnly, info)
		if err != nil {
			t.Error(err)
			return
		}
		me := comm.RankOf(r)
		ft := Vector(4, blockLen, int64(nranks)*blockLen)
		if err := f.SetView(int64(me)*blockLen, ft); err != nil {
			t.Error(err)
		}
		data := make([]byte, 4*blockLen)
		for i := range data {
			data[i] = byte(me + 1)
		}
		if err := f.WriteAtAll(0, data, int64(len(data))); err != nil {
			t.Error(err)
		}
		r.Compute(2 * Second)
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	meta := cluster.FS.Lookup("facade.dat")
	if meta == nil {
		t.Fatal("file missing")
	}
	if meta.Size() != int64(4*nranks*blockLen) {
		t.Fatalf("size = %d", meta.Size())
	}
	buf := make([]byte, meta.Size())
	meta.Store().ReadAt(store.Bytes(buf, 0), 0, int64(len(buf)))
	for block := 0; block < 4*nranks; block++ {
		owner := byte(block%nranks + 1)
		for b := 0; b < blockLen; b++ {
			if buf[block*blockLen+b] != owner {
				t.Fatalf("block %d byte %d = %d, want %d", block, b, buf[block*blockLen+b], owner)
			}
		}
	}
	// Discarded caches must have freed all SSD space.
	for i, fs := range cluster.NVMs {
		if fs.Device().Used() != 0 {
			t.Fatalf("node %d SSD still holds %d bytes", i, fs.Device().Used())
		}
	}
}

// TestFacadeExperiment runs a tiny experiment through the re-exported
// harness surface and sanity-checks the headline ordering.
func TestFacadeExperiment(t *testing.T) {
	w := CollPerf{RunBytes: 64 << 10, RunsY: 4, RunsZ: 4}
	bw := map[Case]float64{}
	for _, cs := range AllCases {
		spec := DefaultSpec(w, cs, 8, 4<<20)
		spec.Cluster = Scaled(7, 8, 4)
		spec.NFiles = 2
		spec.ComputeDelay = 2 * Second
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.BandwidthGBs <= 0 {
			t.Fatalf("case %s: zero bandwidth", cs)
		}
		bw[cs] = res.BandwidthGBs
	}
	if bw[CacheEnabled] <= bw[CacheDisabled] {
		t.Fatalf("cache (%f) must beat disabled (%f) here", bw[CacheEnabled], bw[CacheDisabled])
	}
}

// TestFacadeSweepRenders exercises RunSweep/Render* through the facade.
func TestFacadeSweepRenders(t *testing.T) {
	w := CollPerf{RunBytes: 32 << 10, RunsY: 2, RunsZ: 2}
	sw := Sweep{
		Aggregators: []int{2},
		CBBytes:     []int64{1 << 20},
		Cluster:     Scaled(3, 4, 2),
		NFiles:      1,
		Compute:     Second,
	}
	sr, err := RunSweep(w, []Case{CacheDisabled, CacheEnabled}, sw, false)
	if err != nil {
		t.Fatal(err)
	}
	if sr.RenderBandwidth("t") == "" || sr.RenderBreakdown("t", harness.CacheEnabled) == "" || sr.RenderCSV() == "" {
		t.Fatal("renderers returned empty output")
	}
}
