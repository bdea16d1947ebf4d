package adio

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

var updateTwoPhase = flag.Bool("update", false, "rewrite testdata/twophase_golden.json from the current run")

// twoPhaseRank is one rank's record in the two-phase golden: when its
// measured call returned, its handle's Stats, and the SHA-256 of every
// trace event on its timeline.
type twoPhaseRank struct {
	Done  int64  `json:"done_ns"`
	Stats Stats  `json:"stats"`
	Trace string `json:"trace"`
}

// twoPhaseRun is one golden run: the kernel's final time and dispatch count
// plus every rank's record.
type twoPhaseRun struct {
	End    int64          `json:"end_ns"`
	Events int64          `json:"events"`
	Ranks  []twoPhaseRank `json:"ranks"`
}

// twoPhasePattern is rank's access in the golden runs: an interleaved,
// stripe-unaligned block-cyclic pattern in which rank 5 accesses nothing,
// so domains, holes and empty contributors all show up.
func twoPhasePattern(nranks, rank int, payload bool) ([]extent.Extent, []byte) {
	if rank == 5 {
		return nil, nil
	}
	segs, data := blockCyclic(nranks, rank, 1000, 6)
	if !payload {
		data = nil
	}
	return segs, data
}

// twoPhaseGoldenRun runs one collective call on 4 nodes x 4 ranks and
// records it. op is "write" (WriteStridedColl), "resilient" (the
// fault-free failover write) or "read" (ReadStridedColl over what a
// collective write left behind).
func twoPhaseGoldenRun(t *testing.T, op string, payload bool, driver, placement string) twoPhaseRun {
	t.Helper()
	factory := store.NewNull
	if payload {
		factory = store.NewMem
	}
	cl := newCluster(t, 1, 4, 4, factory)
	tr := trace.New()
	cl.k.SetTracer(tr)
	info := mpi.Info{HintCBWrite: "enable", HintCBRead: "enable",
		HintCBNodes: "4", HintCBBufferSize: "4096", HintStripingUnit: "4096"}
	if placement == "packed" {
		info[HintCBConfigList] = "*:2"
	}
	if op == "resilient" {
		info[HintResilientWrite] = "enable"
		cl.w.SetCollTimeout(50 * sim.Millisecond)
	}
	path := "golden.dat"
	if driver == "beegfs" {
		path = "beegfs:" + path
	}
	n := cl.w.Size()
	ranks := make([]twoPhaseRank, n)
	err := cl.w.Run(func(r *mpi.Rank) {
		f, err := OpenColl(r, OpenArgs{Comm: cl.w.Comm(), Registry: cl.reg, Path: path, Create: true, Info: info})
		if err != nil {
			t.Error(err)
			return
		}
		segs, data := twoPhasePattern(n, r.ID(), payload)
		if err := f.WriteStridedColl(segs, data); err != nil {
			t.Error(err)
		}
		if op == "read" {
			var buf []byte
			if payload {
				buf = make([]byte, len(data))
			}
			if err := f.ReadStridedColl(segs, buf); err != nil {
				t.Error(err)
			}
			if payload && string(buf) != string(data) {
				t.Errorf("rank %d: collective read returned other bytes than written", r.ID())
			}
		}
		ranks[r.ID()].Done = int64(r.Now())
		ranks[r.ID()].Stats = f.Stats
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range ranks {
		tk := cl.w.Rank(id).TraceTrack(tr)
		h := sha256.New()
		for _, ev := range tr.Events() {
			if ev.Track == tk {
				fmt.Fprintf(h, "%d %s %s %d %d %d %v\n", ev.Kind, ev.Cat, ev.Name, ev.Start, ev.Dur, ev.Value, ev.Args[:ev.NArgs])
			}
		}
		ranks[id].Trace = hex.EncodeToString(h.Sum(nil))
	}
	return twoPhaseRun{End: int64(cl.k.Now()), Events: cl.k.EventsDispatched(), Ranks: ranks}
}

// TestTwoPhaseGolden pins the two-phase drivers' virtual timing, Stats and
// per-rank traces: the collective write, the fault-free failover write and
// the collective read, each with payload and metadata-only, on the ufs and
// beegfs drivers, with spread aggregator placement and (except for the
// failover write) packed cb_config_list placement. Regenerate deliberately
// with
//
//	go test ./internal/adio -run TestTwoPhaseGolden -update
func TestTwoPhaseGolden(t *testing.T) {
	got := make(map[string]twoPhaseRun)
	for _, op := range []string{"write", "resilient", "read"} {
		for _, mode := range []string{"payload", "meta"} {
			for _, driver := range []string{"ufs", "beegfs"} {
				for _, placement := range []string{"spread", "packed"} {
					if op == "resilient" && placement == "packed" {
						continue
					}
					key := op + "/" + mode + "/" + driver + "/" + placement
					got[key] = twoPhaseGoldenRun(t, op, mode == "payload", driver, placement)
				}
			}
		}
	}
	golden := filepath.Join("testdata", "twophase_golden.json")
	if *updateTwoPhase {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]twoPhaseRun
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, this run has %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from the golden", key)
			continue
		}
		if g.End != w.End || g.Events != w.Events {
			t.Errorf("%s: end %d ns after %d events, golden %d ns after %d", key, g.End, g.Events, w.End, w.Events)
		}
		for id := range g.Ranks {
			if id >= len(w.Ranks) || !reflect.DeepEqual(g.Ranks[id], w.Ranks[id]) {
				t.Errorf("%s rank %d: %+v, golden %+v", key, id, g.Ranks[id], w.Ranks[id])
			}
		}
	}
}
