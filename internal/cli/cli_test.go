package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpecFromFlags(t *testing.T) {
	f := parse(t, "-aggs", "16", "-cb", "8", "-case", "theoretical",
		"-files", "2", "-compute", "5", "-nodes", "8", "-ppn", "4")
	spec, err := f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Aggregators != 16 || spec.CBBuffer != 8<<20 || spec.Case != harness.CacheTheoretical {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.NFiles != 2 || spec.ComputeDelay != 5*sim.Second {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Cluster.Nodes != 8 || spec.Cluster.RanksPerNode != 4 {
		t.Fatalf("cluster = %+v", spec.Cluster)
	}
}

func TestSpecDegradedFlags(t *testing.T) {
	f := parse(t, "-reliable")
	spec, err := f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Reliable || spec.Resilient {
		t.Fatalf("-reliable: spec = %+v", spec)
	}
	f = parse(t, "-resilient")
	spec, err = f.Spec(workloads.DefaultIOR())
	if err != nil {
		t.Fatal(err)
	}
	// Spec.Resilient arms reliable delivery itself (harness.Run).
	if spec.Reliable || !spec.Resilient {
		t.Fatalf("-resilient must set Resilient alone: spec = %+v", spec)
	}
}

func TestSpecRejectsBadCase(t *testing.T) {
	f := parse(t, "-case", "turbo")
	if _, err := f.Spec(workloads.DefaultIOR()); err == nil {
		t.Fatal("expected error")
	}
}

func TestReportRendersEverything(t *testing.T) {
	w := workloads.CollPerf{RunBytes: 32 << 10, RunsY: 2, RunsZ: 2}
	spec := harness.DefaultSpec(w, harness.CacheEnabled, 2, 1<<20)
	spec.Cluster = harness.Scaled(1, 2, 2)
	spec.NFiles = 1
	spec.ComputeDelay = sim.Second
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Report(&buf, res)
	out := buf.String()
	for _, want := range []string{"perceived bandwidth", "coll_perf", "phase 0", "breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
