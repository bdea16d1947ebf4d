package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleBench() *BenchReport {
	return &BenchReport{
		Schema: BenchSchema,
		Seed:   1,
		Scenarios: []BenchScenario{
			{Name: "interleaved/disabled/2x2", WallTimeNs: 1_000_000},
			{Name: "contiguous/enabled+flush_onclose/4x4", WallTimeNs: 2_000_000},
		},
	}
}

func TestBenchCompareExact(t *testing.T) {
	base := sampleBench()
	if err := CompareBenchReports(base, sampleBench(), 2); err != nil {
		t.Fatalf("identical reports must pass: %v", err)
	}
}

func TestBenchCompareWithinTolerance(t *testing.T) {
	base, cur := sampleBench(), sampleBench()
	cur.Scenarios[0].WallTimeNs = 1_020_000 // exactly +2%
	if err := CompareBenchReports(base, cur, 2); err != nil {
		t.Fatalf("+2%% must pass: %v", err)
	}
}

func TestBenchCompareFailsOnRegression(t *testing.T) {
	base, cur := sampleBench(), sampleBench()
	cur.Scenarios[1].WallTimeNs = 2_041_000 // +2.05%
	err := CompareBenchReports(base, cur, 2)
	if err == nil {
		t.Fatal(">2% regression must fail")
	}
	if !strings.Contains(err.Error(), "contiguous/enabled+flush_onclose/4x4") {
		t.Errorf("error should name the regressed scenario: %v", err)
	}
}

func TestBenchCompareFailsOnMissingScenario(t *testing.T) {
	base, cur := sampleBench(), sampleBench()
	cur.Scenarios = cur.Scenarios[:1]
	err := CompareBenchReports(base, cur, 2)
	if err == nil {
		t.Fatal("missing scenario must fail")
	}
	if !strings.Contains(err.Error(), "missing from current run") {
		t.Errorf("error should flag the missing scenario: %v", err)
	}
}

func TestParseBenchRejectsWrongSchema(t *testing.T) {
	if _, err := ParseBench([]byte(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
	if _, err := ParseBench([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}

// TestCommittedBaselineParsesAndGates checks the repo's committed baseline:
// it must parse, cover the full 18-scenario matrix, and demonstrably fail
// the gate when one scenario's time is hand-inflated past the tolerance.
func TestCommittedBaselineParsesAndGates(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_2026-08-05.json"))
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	base, err := ParseBench(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Scenarios) != 18 {
		t.Errorf("baseline has %d scenarios, want the full 3x2x3 matrix (18)", len(base.Scenarios))
	}
	if err := CompareBenchReports(base, base, 2); err != nil {
		t.Fatalf("baseline must pass against itself: %v", err)
	}
	inflated, err := ParseBench(data)
	if err != nil {
		t.Fatal(err)
	}
	inflated.Scenarios[0].WallTimeNs += base.Scenarios[0].WallTimeNs/10 + 1 // +10%
	if err := CompareBenchReports(base, inflated, 2); err == nil {
		t.Fatal("hand-inflated scenario time must fail the gate")
	}
}

// TestCheckBenchNamesEveryDrift holds the matrix gate to the committed
// baseline byte for byte: the file passes against its own parse, and a
// scenario whose exchange bytes moved (a field CompareBenchReports does
// not read), a missing one and a new one each fail, named.
func TestCheckBenchNamesEveryDrift(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_2026-08-05.json"))
	if err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	base, err := ParseBench(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBench(data, base); err != nil {
		t.Fatalf("baseline must pass against itself: %v", err)
	}
	cur, err := ParseBench(data)
	if err != nil {
		t.Fatal(err)
	}
	moved := cur.Scenarios[3].Name
	cur.Scenarios[3].ExchangeBytes++
	if err := CompareBenchReports(base, cur, 0); err != nil {
		t.Fatalf("CompareBenchReports flags exchange bytes (%v), so the case does not test the exact gate", err)
	}
	err = CheckBench(data, cur)
	if err == nil || !strings.Contains(err.Error(), moved+":") {
		t.Fatalf("changed exchange_bytes: err %v, want it to name %s", err, moved)
	}
	missing := cur.Scenarios[0].Name
	cur.Scenarios[0].Name = "extra/cell/1x1"
	err = CheckBench(data, cur)
	for _, want := range []string{moved + ":", missing + ": missing", "extra/cell/1x1: not in the baseline"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err %v, want it to contain %q", err, want)
		}
	}
}

// BenchmarkMetricsOverhead measures the host-CPU cost of running the golden
// cell with the metrics registry off and on. Virtual-time results are
// identical either way (TestMetricsDoNotPerturb); this shows the registry's
// only cost is host CPU.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, on bool) {
		for i := 0; i < b.N; i++ {
			spec := metricsSpec()
			spec.Metrics = on
			if _, err := Run(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}
