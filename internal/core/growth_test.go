package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// journalPeaks runs a cache-enabled coll_perf cell on 8 nodes × 4 ranks,
// one file with 4 aggregators and 4 MiB collective buffers, at 1×, 2× and
// 4× the base block per rank, so 2, 4 and 8 write rounds per aggregator,
// and returns the largest journal image of each run. Cache files are kept
// at close so their journals can be read after the run.
func journalPeaks(t *testing.T) [3]int {
	t.Helper()
	var peaks [3]int
	for i, rounds := range []int{1, 2, 4} {
		w := workloads.CollPerf{RunBytes: 64 << 10, RunsY: 4, RunsZ: 4 * rounds}
		spec := harness.DefaultSpec(w, harness.CacheEnabled, 4, 4<<20)
		spec.Cluster = harness.Scaled(7, 8, 4)
		spec.NFiles = 1
		spec.ComputeDelay = 2 * sim.Second
		spec.ExtraHints = map[string]string{core.HintDiscardFlag: "disable"}
		var env *core.Env
		spec.PreRun = func(cl *harness.Cluster) error { env = cl.CoreEnv; return nil }
		if _, err := harness.Run(spec); err != nil {
			t.Fatal(err)
		}
		peaks[i] = env.ImagePeak()
	}
	return peaks
}

// TestJournalImageFlatOverRounds is the journal's growth gate: the largest
// journal image must be the same size whether a file takes 2, 4 or 8
// write rounds, since checkpoints bound it by the live extents.
func TestJournalImageFlatOverRounds(t *testing.T) {
	peaks := journalPeaks(t)
	t.Logf("largest journal image at 1x, 2x, 4x rounds: %v bytes", peaks)
	if peaks[1] != peaks[0] || peaks[2] != peaks[0] {
		t.Errorf("largest journal image %v bytes at 1x, 2x, 4x rounds, want one size", peaks)
	}
}

// TestJournalImageGateTrips is the growth gate's sabotage self-test: with
// checkpoints off the largest image must grow with the rounds.
func TestJournalImageGateTrips(t *testing.T) {
	defer core.NeverCheckpoint()()
	peaks := journalPeaks(t)
	t.Logf("largest journal image at 1x, 2x, 4x rounds without checkpoints: %v bytes", peaks)
	if peaks[1] == peaks[0] && peaks[2] == peaks[0] {
		t.Errorf("largest journal image %v bytes at 1x, 2x, 4x rounds without checkpoints, want the gate to trip", peaks)
	}
}
