package mpi_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// streamCounts runs a coll_perf cell on 8 nodes × 4 ranks over links that
// drop 10% of messages, with reliable delivery, writing 1, 2 and 4 files,
// and returns for each run the streams holding sequence numbers at its end
// and the messages still outstanding, pending or given up.
func streamCounts(t *testing.T) (streams, unsettled [3]int) {
	t.Helper()
	for i, files := range []int{1, 2, 4} {
		w := workloads.CollPerf{RunBytes: 64 << 10, RunsY: 4, RunsZ: 4}
		spec := harness.DefaultSpec(w, harness.CacheDisabled, 4, 4<<20)
		spec.Cluster = harness.Scaled(7, 8, 4)
		spec.NFiles = files
		spec.ComputeDelay = sim.Second
		spec.Reliable = true
		var world *mpi.World
		spec.PreRun = func(cl *harness.Cluster) error {
			world = cl.World
			for n := 0; n < 8; n++ {
				cl.Fabric.Node(n).SetLossy(0.1)
			}
			return nil
		}
		if _, err := harness.Run(spec); err != nil {
			t.Fatal(err)
		}
		if world.Retransmits() == 0 {
			t.Fatalf("%d files: no message was retransmitted; the links lost nothing", files)
		}
		streams[i], unsettled[i] = world.Streams(), world.Unsettled()
	}
	return streams, unsettled
}

// TestStreamsBoundedOverFiles is reliable delivery's growth gate: at the
// end of a lossy run the streams holding sequence numbers may be no more
// than the messages outstanding, pending or given up, however many files
// the run wrote.
func TestStreamsBoundedOverFiles(t *testing.T) {
	streams, unsettled := streamCounts(t)
	t.Logf("1, 2, 4 files: %v streams, %v messages outstanding, pending or given up", streams, unsettled)
	for i := range streams {
		if streams[i] > unsettled[i] {
			t.Errorf("%d files: %d streams hold sequence numbers, want <= %d", 1<<i, streams[i], unsettled[i])
		}
	}
}

// TestStreamsGateTrips is the growth gate's sabotage self-test: when no
// stream retires, the streams must outnumber the unsettled messages.
func TestStreamsGateTrips(t *testing.T) {
	defer mpi.KeepStreams()()
	streams, unsettled := streamCounts(t)
	t.Logf("1, 2, 4 files without retirement: %v streams, %v messages outstanding, pending or given up", streams, unsettled)
	for i := range streams {
		if streams[i] <= unsettled[i] {
			t.Errorf("%d files without retirement: %d streams, want more than %d", 1<<i, streams[i], unsettled[i])
		}
	}
}
