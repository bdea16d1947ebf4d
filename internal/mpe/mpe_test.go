package mpe

import (
	"testing"

	"repro/internal/sim"
)

func TestLogAccumulates(t *testing.T) {
	l := NewLog()
	l.Add(PhaseWrite, 2*sim.Second)
	l.Add(PhaseWrite, 3*sim.Second)
	l.Add(PhasePostWrite, sim.Second)
	if l.Total(PhaseWrite) != 5*sim.Second || l.Total(PhasePostWrite) != sim.Second {
		t.Fatalf("write total=%v post_write total=%v", l.Total(PhaseWrite), l.Total(PhasePostWrite))
	}
}

func TestNegativeAndNilAreIgnored(t *testing.T) {
	l := NewLog()
	l.Add(PhaseWrite, -sim.Second)
	if l.Total(PhaseWrite) != 0 {
		t.Fatal("negative durations must be ignored")
	}
	var nilLog *Log
	nilLog.Add(PhaseWrite, sim.Second) // must not panic
	if nilLog.Total(PhaseWrite) != 0 {
		t.Fatal("nil log must behave as empty")
	}
}

func TestSpan(t *testing.T) {
	l := NewLog()
	s := StartSpan(10 * sim.Second)
	s.End(l, PhaseShuffleA2A, 12*sim.Second)
	if l.Total(PhaseShuffleA2A) != 2*sim.Second {
		t.Fatalf("span total = %v", l.Total(PhaseShuffleA2A))
	}
}

func TestAggregate(t *testing.T) {
	a, b := NewLog(), NewLog()
	a.Add(PhaseWrite, 2*sim.Second)
	b.Add(PhaseWrite, 6*sim.Second)
	agg := Aggregate([]*Log{a, nil, b}, PhaseWrite)
	if agg.Max != 6*sim.Second {
		t.Fatalf("max = %v", agg.Max)
	}
	if agg.Mean != 4*sim.Second {
		t.Fatalf("mean = %v", agg.Mean)
	}
	if agg.Sum != 8*sim.Second {
		t.Fatalf("sum = %v", agg.Sum)
	}
}

func TestBreakdownPhasesIncludeNotHiddenSync(t *testing.T) {
	found := false
	for _, ph := range BreakdownPhases {
		if ph == PhaseNotHiddenSync {
			found = true
		}
	}
	if !found {
		t.Fatal("not_hidden_sync missing from breakdown phases")
	}
}
