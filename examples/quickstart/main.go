// Quickstart: build a small simulated cluster, write a shared file
// collectively with the E10 cache hints, and verify that after
// MPI_File_close every byte is in the global parallel file system.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/store"
)

func main() {
	// A 4-node × 4-rank machine with real payload bytes so we can verify
	// content end to end.
	cfg := repro.Scaled(42, 4, 4)
	cfg.Payload = true
	cluster := repro.NewCluster(cfg)
	world := cluster.World
	comm := world.Comm()

	// The hints of Tables I and II: force collective writes through two
	// aggregators, cache them on the node-local SSDs, flush in the
	// background, discard the cache files at close.
	info := repro.Info{
		repro.HintCBWrite:             "enable",
		repro.HintCBNodes:             "2",
		repro.HintCBBufferSize:        "1048576",
		repro.HintE10Cache:            repro.CacheValueEnable,
		repro.HintE10CachePath:        "/scratch",
		repro.HintE10CacheFlushFlag:   repro.FlushImmediate,
		repro.HintE10CacheDiscardFlag: "enable",
	}

	const blockLen = 4096
	nranks := world.Size()
	err := world.Run(func(r *repro.Rank) {
		f, err := cluster.Env.Open(r, comm, "quickstart.dat",
			repro.ModeCreate|repro.ModeWrOnly, info)
		if err != nil {
			log.Fatal(err)
		}
		// Each rank owns 4 interleaved blocks: a strided shared-file
		// pattern, the case collective I/O exists for.
		me := comm.RankOf(r)
		ft := repro.Vector(4, blockLen, int64(nranks)*blockLen)
		if err := f.SetView(int64(me)*blockLen, ft); err != nil {
			log.Fatal(err)
		}
		data := make([]byte, 4*blockLen)
		for i := range data {
			data[i] = byte(me + 1)
		}
		if err := f.WriteAtAll(0, data, int64(len(data))); err != nil {
			log.Fatal(err)
		}
		// Emulate a compute phase: the cache flush overlaps with it.
		r.Compute(2 * repro.Second)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// Verify the global file: every block must carry its owner's byte.
	meta := cluster.FS.Lookup("quickstart.dat")
	if meta == nil {
		log.Fatal("global file missing")
	}
	buf := make([]byte, meta.Size())
	meta.Store().ReadAt(store.Bytes(buf, 0), 0, int64(len(buf)))
	for block := 0; block < 4*nranks; block++ {
		owner := byte(block%nranks + 1)
		for b := 0; b < blockLen; b++ {
			if buf[block*blockLen+b] != owner {
				log.Fatalf("block %d corrupted", block)
			}
		}
	}
	fmt.Printf("wrote and verified %d bytes through the SSD cache\n", meta.Size())
	fmt.Printf("simulated time: %v\n", cluster.Kernel.Now())
	for i, fs := range cluster.NVMs {
		if fs.Device().BytesWritten > 0 {
			fmt.Printf("node %d SSD absorbed %d bytes (cache discarded: %d in use)\n",
				i, fs.Device().BytesWritten, fs.Device().Used())
		}
	}
}
