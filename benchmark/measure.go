package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

// loop drives one workload as a closed loop with one client: each rep
// starts when the previous one has returned. It counts every rep it starts
// and fails a rep when its entry point returns an error, when an oracle
// rejects its outputs, or when its virtual outputs differ from those of the
// first rep that succeeded.
type loop struct {
	run   func(rep int, traced bool) (*repResult, error)
	check func(*repResult) error // optional; untraced reps only, outside the timer
	// setup, when set, runs one set-up batch ahead of every untraced rep,
	// outside the rep's timer and peak-RSS window; setupS keeps its results.
	setup  func(rep int) float64
	setupS []float64

	attempted, failed int
	errs              []string
	ref               string // fingerprint of the first good rep
	haveRef           bool

	// Timed reps: host seconds, peak RSS and outputs of each good one, and
	// the Go runtime's allocation and GC activity summed over all of them.
	hostS       []float64
	rssMiB      []float64
	rssErr      error // first failure to reset or read the peak RSS
	reps        []*repResult
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	timedEvents int64
}

// once runs one rep and returns its outputs (nil when it failed) and host
// time. Every rep starts from a collected heap and a reset peak-RSS mark,
// so its peak RSS is its own, free of the warm-up and set-up batches.
func (l *loop) once(rep int, traced, timed bool) (*repResult, time.Duration) {
	if l.setup != nil && !traced {
		l.setupS = append(l.setupS, l.setup(rep))
	}
	runtime.GC()
	if err := resetPeakRSS(); err != nil && l.rssErr == nil {
		l.rssErr = err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.attempted++
	t0 := time.Now()
	r, err := l.run(rep, traced)
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err == nil && l.check != nil && !traced {
		err = l.check(r)
	}
	if err == nil && l.haveRef && r.fingerprint != l.ref {
		err = fmt.Errorf("virtual outputs differ from the first rep's:\n    first: %s\n    this:  %s", l.ref, r.fingerprint)
	}
	if err != nil {
		l.failed++
		l.errs = append(l.errs, fmt.Sprintf("rep %d: %v", rep, err))
		return nil, d
	}
	if !l.haveRef {
		l.ref, l.haveRef = r.fingerprint, true
	}
	if timed {
		l.hostS = append(l.hostS, d.Seconds())
		if rss, err := peakRSSMiB(); err != nil {
			if l.rssErr == nil {
				l.rssErr = err
			}
		} else {
			l.rssMiB = append(l.rssMiB, rss)
		}
		l.reps = append(l.reps, r)
		l.mallocs += after.Mallocs - before.Mallocs
		l.allocBytes += after.TotalAlloc - before.TotalAlloc
		l.gcCycles += after.NumGC - before.NumGC
		l.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
		l.timedEvents += r.events()
	}
	return r, d
}

// minTimedReps is the fewest timed reps a pass runs, however long they
// take, so that every workload's quartiles rest on at least five values.
const minTimedReps = 5

// timed runs untraced reps back to back, numbered from first, until budget
// has elapsed and at least minTimedReps have run.
func (l *loop) timed(first int, budget time.Duration) int {
	start := time.Now()
	rep := first
	for ; rep-first < minTimedReps || time.Since(start) < budget; rep++ {
		l.once(rep, false, true)
	}
	return rep
}

// A set-up batch calls harness.NewCluster back to back for at least
// setupBatchTime and setupBatchCalls calls. A call takes from tens of
// microseconds (8 nodes) to about a millisecond (512 nodes).
const (
	setupBatchTime  = 20 * time.Millisecond
	setupBatchCalls = 25
)

// setupBatch runs one set-up batch for cfg and returns the host seconds of
// its fastest call, the one no garbage collection or preemption landed in.
// On the 2-core machine the benchmark was built on, bursts of work
// elsewhere slowed every call by up to half for a fraction of a second to
// seconds at a time; the timed pass runs one batch ahead of each rep so
// that such a burst sets at most a few of the batches whose median is
// setup_s.
func setupBatch(cfg harness.ClusterConfig, spans *spanLog) float64 {
	runtime.GC()
	fastest := time.Duration(math.MaxInt64)
	spans.timed("harness.NewCluster batch", func() {
		for t0, calls := time.Now(), 0; calls < setupBatchCalls || time.Since(t0) < setupBatchTime; calls++ {
			c0 := time.Now()
			harness.NewCluster(cfg)
			fastest = min(fastest, time.Since(c0))
		}
	})
	return fastest.Seconds()
}

// resetPeakRSS sets this process's peak-RSS mark (VmHWM) to its current
// RSS (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB returns this process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}
