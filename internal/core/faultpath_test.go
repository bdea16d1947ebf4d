package core

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/adio"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/faultpath and testdata/hints_golden.json from the current code")

// faultPathScenarios are the sync thread's fault paths, each a test of this
// package: every scenario of fault_test.go, an adaptive-flush run backing
// off under foreground traffic, and a payload-backed readback.
var faultPathScenarios = []struct {
	name string
	run  func(t *testing.T)
}{
	{"transient_outage", TestSyncRetriesTransientTargetOutage},
	{"terminal_failure", TestTerminalSyncFailureSurfacesAndRetainsCache},
	{"crash_mid_sync", TestCrashReleasesLocksAndFailsFurtherIO},
	{"crash_recovery", TestCrashRecoveryReplaysJournalWithVerification},
	{"crash_flush_wait", TestCrashDuringFlushWaitDoesNotDeadlock},
	{"crash_cache_write", TestCrashDuringCacheWriteDoesNotStrandRequest},
	{"device_dies_in_replay", TestDoubleFaultDeviceDiesDuringReplay},
	{"enospc_in_replay", TestDoubleFaultENOSPCDuringReplayStillRecovers},
	{"replay_idempotent", TestRecoveryReplayIsIdempotent},
	{"retry_budget", TestRetryHintsConfigureBudget},
	{"partition_retries", TestSyncPartitionRetriesAreBudgetExempt},
	{"adaptive_backoff", TestAdaptiveFlushBacksOffUnderCongestion},
	{"payload_readback", testPayloadReadback},
	{"multi_stripe_sync", testMultiStripeSync},
}

// TestFaultPathGolden runs every fault-path scenario traced and requires,
// for each rig it builds, the same virtual end time, events dispatched,
// per-cache Stats and trace as testdata/faultpath records. The files were
// recorded from the sync thread as a worker loop, so the step-process sync
// thread must schedule exactly the events that loop did. Regenerate with
// go test ./internal/core -run TestFaultPathGolden -update.
func TestFaultPathGolden(t *testing.T) {
	for _, sc := range faultPathScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var rigs []*rig
			var tracers []*trace.Tracer
			observeRig = func(rg *rig) {
				tr := trace.New()
				rg.k.SetTracer(tr)
				rigs = append(rigs, rg)
				tracers = append(tracers, tr)
			}
			defer func() { observeRig = nil }()
			sc.run(t)
			if t.Failed() {
				return
			}
			var sum strings.Builder
			for i, rg := range rigs {
				fmt.Fprintf(&sum, "rig %d: end %d ns, %d events\n", i, rg.k.Now(), rg.k.EventsDispatched())
				for j, c := range rg.caches {
					fmt.Fprintf(&sum, "  cache %d %s: %+v\n", j, c.key, c.Stats)
				}
				var b bytes.Buffer
				if err := tracers[i].WriteChrome(&b); err != nil {
					t.Fatal(err)
				}
				checkFaultPathFile(t, fmt.Sprintf("%s.rig%d.trace.json.gz", sc.name, i), b.Bytes())
			}
			checkFaultPathFile(t, sc.name+".txt", []byte(sum.String()))
		})
	}
}

// checkFaultPathFile compares got with testdata/faultpath/name, or rewrites
// the file under -update. A name ending in .gz holds got gzipped.
func checkFaultPathFile(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "faultpath", name)
	zipped := strings.HasSuffix(name, ".gz")
	if *update {
		out := got
		if zipped {
			var b bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&b, gzip.BestCompression)
			zw.Write(got)
			zw.Close()
			out = b.Bytes()
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err == nil && zipped {
		var zr *gzip.Reader
		if zr, err = gzip.NewReader(bytes.NewReader(want)); err == nil {
			want, err = io.ReadAll(zr)
		}
	}
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		if strings.HasSuffix(name, ".txt") {
			t.Fatalf("%s differs:\ngot:\n%s\nwant:\n%s", path, got, want)
		}
		t.Fatalf("%s differs (%d bytes, want %d); %s", path, len(got), len(want), traceEventDiff(got, want))
	}
}

// traceEventDiff says whether two Chrome exports, which hold one event per
// line, hold the same multiset of events, so that a failing golden tells an
// order-only change from a changed event. It lists up to 5 events found on
// one side only, each with its surplus count (+ got, - golden).
func traceEventDiff(got, want []byte) string {
	n := map[string]int{}
	for _, l := range bytes.Split(got, []byte("\n")) {
		n[strings.TrimSuffix(string(l), ",")]++
	}
	for _, l := range bytes.Split(want, []byte("\n")) {
		n[strings.TrimSuffix(string(l), ",")]--
	}
	var only []string
	for l, c := range n {
		if c != 0 {
			only = append(only, fmt.Sprintf("%+d %s", c, l))
		}
	}
	if len(only) == 0 {
		return "same event multiset: only the order differs"
	}
	sort.Strings(only)
	head := only[:min(5, len(only))]
	return fmt.Sprintf("event multisets differ in %d distinct events, e.g.\n%s", len(only), strings.Join(head, "\n"))
}

// testPayloadReadback writes real bytes from two nodes, one through its
// cache and sync thread and one written through around a failed cache
// device (a two-stripe write), then reads the whole range back from the
// global file on both ranks (a three-stripe read).
func testPayloadReadback(t *testing.T) {
	const half = 6 << 20
	data := make([]byte, 2*half)
	for i := range data {
		data[i] = byte(i*31%251 + 1)
	}
	rg := newRigSeed(t, 5, 2, 1, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
		})
		if r.ID() == 1 {
			rg.nvms[1].Device().SetFailed(true)
		}
		off := int64(r.ID()) * half
		if err := f.WriteContig(store.Bytes(data[off:off+half], off), off, half); err != nil {
			t.Error(err)
		}
		if err := f.Flush(); err != nil {
			t.Error(err)
		}
		rg.w.Comm().Barrier(r)
		got := make([]byte, len(data))
		if err := f.ReadContig(store.Bytes(got, 0), 0, int64(len(got))); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("rank %d read back different bytes", r.ID())
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := rg.caches[1]; c.Stats.WriteThroughs != 1 {
		t.Fatalf("rank 1 wrote through %d times, want 1", c.Stats.WriteThroughs)
	}
}

// testMultiStripeSync syncs an unaligned extent through a 6 MiB sync
// buffer, so every chunk's global write spans two or three stripes and
// streams from step processes while the sync thread waits for them. All
// targets go down right after the cached write and come back 25 ms later,
// so the first chunk fails and is retried; the bytes are then read back.
func testMultiStripeSync(t *testing.T) {
	const off, size = 1<<20 + 300<<10, 16 << 20
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*17%251 + 1)
	}
	rg := newRigSeed(t, 3, 1, 1, store.NewMem)
	err := rg.w.Run(func(r *mpi.Rank) {
		f := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_immediate",
			adio.HintIndWrBufferSize: "6291456",
		})
		if err := f.WriteContig(store.Bytes(data, off), off, size); err != nil {
			t.Error(err)
		}
		rg.setTargets(true)
		rg.k.After(25*sim.Millisecond, func() { rg.setTargets(false) })
		if err := f.Flush(); err != nil {
			t.Error(err)
		}
		got := make([]byte, size)
		if err := f.ReadContig(store.Bytes(got, off), off, size); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read back different bytes")
		}
		if c := f.InstalledHooks().(*Cache); c.Stats.SyncRetries == 0 {
			t.Error("the outage must be visible as SyncRetries")
		}
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
