package harness

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/adio"
	"repro/internal/workloads"
)

// TestReliableNoFaultTraceUnchanged is the degraded-mode determinism
// regression: arming the reliable-delivery layer and collective timeouts
// on a fault-free run must leave the exported trace byte-identical to the
// plain run. Acks ride the fabric without delaying payload delivery and
// retransmit timers are cancelled before firing, so the reliability
// machinery is invisible until a fault actually needs it.
func TestReliableNoFaultTraceUnchanged(t *testing.T) {
	plain := exportTrace(t)
	spec := traceSpec()
	spec.Reliable = true
	reliable := exportTraceSpec(t, spec)
	if !bytes.Equal(plain, reliable) {
		t.Fatalf("reliable layer perturbed the fault-free trace (%d vs %d bytes)",
			len(plain), len(reliable))
	}
}

// TestResilientImpliesReliable pins the Spec contract: the failover
// write path arms reliable delivery and collective timeouts itself, so a
// Resilient-only spec runs exactly as Resilient plus Reliable.
func TestResilientImpliesReliable(t *testing.T) {
	run := func(reliable bool) (*Result, []byte) {
		spec := traceSpec()
		spec.Resilient = true
		spec.Reliable = reliable
		spec.FaultSpec = "lossy-link,node=0,factor=0.1,from=0s,to=1h"
		spec.PreRun = func(cl *Cluster) error {
			if !cl.World.ReliableEnabled() {
				t.Errorf("Reliable=%v: reliable delivery not armed", reliable)
			}
			return nil
		}
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		res.Spec, res.Trace = Spec{}, nil
		return res, buf.Bytes()
	}
	alone, aloneTrace := run(false)
	both, bothTrace := run(true)
	if !reflect.DeepEqual(alone, both) || !bytes.Equal(aloneTrace, bothTrace) {
		t.Fatalf("Resilient alone ran differently from Resilient+Reliable:\n%+v\n%+v", alone, both)
	}
}

// TestResilientSelectsFailoverWrite checks that Spec.Resilient, and only
// it, opens the file with the failover collective write selected.
func TestResilientSelectsFailoverWrite(t *testing.T) {
	for _, resilient := range []bool{false, true} {
		spec := traceSpec()
		spec.Resilient = resilient
		h, err := adio.ParseHints(spec.hints(), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ResilientWrite == adio.HintEnable; got != resilient {
			t.Errorf("Resilient=%v: failover write selected=%v", resilient, got)
		}
	}
}

// degradedSpec is a small cell on the degraded-mode path: reliable
// delivery armed, resilient collective writes selected.
func degradedSpec() Spec {
	spec := traceSpec()
	spec.Reliable = true
	spec.Resilient = true
	return spec
}

// TestResilientWritePathRuns runs the failover-capable write path with no
// faults and checks it completes, moves every byte, and is deterministic.
func TestResilientWritePathRuns(t *testing.T) {
	a, err := Run(degradedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.BandwidthGBs <= 0 {
		t.Fatalf("resilient run reported bandwidth %v", a.BandwidthGBs)
	}
	b, err := Run(degradedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime {
		t.Fatalf("resilient runs diverged: %v vs %v", a.WallTime, b.WallTime)
	}
	if !reflect.DeepEqual(a.Phases, b.Phases) {
		t.Fatalf("resilient phase metrics diverged:\n a: %+v\n b: %+v", a.Phases, b.Phases)
	}
}

// TestReliableRunSurvivesLossyLink drops 10% of node 0's fabric messages
// during the whole run; retransmission must carry the collective write to
// completion, deterministically.
func TestReliableRunSurvivesLossyLink(t *testing.T) {
	mk := func() Spec {
		w := workloads.CollPerf{RunBytes: 32 << 10, RunsY: 2, RunsZ: 2}
		spec := DefaultSpec(w, CacheEnabled, 2, 1<<20)
		spec.Cluster = Scaled(42, 2, 2)
		spec.NFiles = 1
		spec.ComputeDelay = 0
		spec.Reliable = true
		spec.FaultSpec = "lossy-link,node=0,factor=0.1,from=0s,to=1h"
		return spec
	}
	a, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.BandwidthGBs <= 0 {
		t.Fatalf("lossy run reported bandwidth %v", a.BandwidthGBs)
	}
	b, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.WallTime != b.WallTime {
		t.Fatalf("lossy runs diverged: %v vs %v", a.WallTime, b.WallTime)
	}
}
