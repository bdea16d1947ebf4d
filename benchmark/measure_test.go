package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeRep returns a rep function whose outputs are identical except where
// the test injects a failure.
func fakeRep(fail map[int]string) func(int, bool) (*repResult, error) {
	return func(rep int, traced bool) (*repResult, error) {
		switch fail[rep] {
		case "error":
			return nil, errors.New("injected")
		case "drift":
			return &repResult{fingerprint: "wall=2"}, nil
		case "oracle":
			return &repResult{fingerprint: "wall=1", extra: map[string]float64{"bad": 1}}, nil
		}
		return &repResult{fingerprint: "wall=1", cells: []cell{{wallNs: 1, events: 10}}}, nil
	}
}

func TestLoopFailedFraction(t *testing.T) {
	for _, kind := range []string{"error", "drift", "oracle"} {
		l := &loop{
			run: fakeRep(map[int]string{3: kind}),
			check: func(r *repResult) error {
				if r.extra["bad"] != 0 {
					return errors.New("oracle rejected the rep")
				}
				return nil
			},
		}
		l.once(0, false, false)
		for rep := 1; rep <= 7; rep++ {
			l.once(rep, false, true)
		}
		if l.attempted != 8 || l.failed != 1 {
			t.Errorf("%s: attempted %d failed %d, want 8 and 1", kind, l.attempted, l.failed)
		}
		if len(l.hostS) != 6 || len(l.reps) != 6 || l.timedEvents != 60 {
			t.Errorf("%s: %d host times, %d reps, %d events; want 6, 6, 60", kind, len(l.hostS), len(l.reps), l.timedEvents)
		}
		if len(l.errs) != 1 || !strings.HasPrefix(l.errs[0], "rep 3: ") {
			t.Errorf("%s: errors %q, want one naming rep 3", kind, l.errs)
		}
	}
}

func TestLoopFirstGoodRepIsReference(t *testing.T) {
	l := &loop{run: fakeRep(map[int]string{0: "error"})}
	l.once(0, false, false) // a failed warm-up sets no reference
	l.once(1, false, true)
	l.once(2, false, true)
	if l.failed != 1 || l.ref != "wall=1" {
		t.Errorf("failed %d, reference %q; want 1 and wall=1", l.failed, l.ref)
	}
}

func TestLoopTimedRunsMinimumReps(t *testing.T) {
	var setupReps []int
	l := &loop{run: fakeRep(nil), setup: func(rep int) float64 {
		setupReps = append(setupReps, rep)
		return 1
	}}
	if next := l.timed(1, 0); next != 1+minTimedReps || len(l.hostS) != minTimedReps {
		t.Errorf("timed with no budget: next rep %d, %d timings; want %d and %d", next, len(l.hostS), 1+minTimedReps, minTimedReps)
	}
	l.once(1+minTimedReps, true, false) // a traced rep gets no set-up batch
	if len(setupReps) != minTimedReps || setupReps[0] != 1 || len(l.setupS) != minTimedReps {
		t.Errorf("set-up batches ran before reps %v and recorded %d; want one before each of the %d timed reps", setupReps, len(l.setupS), minTimedReps)
	}
	l = &loop{run: func(int, bool) (*repResult, error) {
		time.Sleep(5 * time.Millisecond)
		return &repResult{}, nil
	}}
	if l.timed(1, 60*time.Millisecond); len(l.hostS) <= minTimedReps {
		t.Errorf("timed for 60ms of 5ms reps ran %d reps", len(l.hostS))
	}
}

func TestSpanNesting(t *testing.T) {
	l := newSpanLog("w")
	l.rep = 4
	outer := l.begin("rep")
	l.timed("harness.Run", func() {})
	inner := l.begin("critpath.Analyze")
	l.end(outer) // also closes the span left open inside it
	if len(l.spans) != 3 || len(l.open) != 0 {
		t.Fatalf("%d spans, %d open; want 3 and 0", len(l.spans), len(l.open))
	}
	for _, s := range l.spans[1:] {
		if s.Parent != outer || s.Rep != 4 || s.Workload != "w" || s.EndNs < s.StartNs {
			t.Errorf("span %+v: want parent %d, rep 4, workload w, end >= start", s, outer)
		}
	}
	if l.spans[inner-1].EndNs != l.spans[outer-1].EndNs {
		t.Errorf("inner span left open was not closed with its parent")
	}
}
