package harness_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/estat"
	"repro/internal/harness"
)

// TestGoldenStatReport locks the e10stat markdown report for the golden cell
// down byte for byte, and checks the breakdown table's structural invariant:
// the rows sum to the wall time exactly. Regenerate deliberately with
//
//	go test ./internal/harness -run TestGoldenStatReport -update
func TestGoldenStatReport(t *testing.T) {
	res, err := harness.Run(harness.MetricsSpec())
	if err != nil {
		t.Fatal(err)
	}
	in := estat.FromResult(res)
	text, err := estat.Render([]estat.Input{in}, estat.FormatMarkdown)
	if err != nil {
		t.Fatal(err)
	}

	rep := estat.Build([]estat.Input{in})
	if len(rep.Cells) != 1 {
		t.Fatalf("want 1 cell, got %d", len(rep.Cells))
	}
	var sum int64
	for _, row := range rep.Cells[0].Rows {
		sum += row.Ns
	}
	if sum != rep.Cells[0].WallTimeNs {
		t.Errorf("breakdown rows sum to %d ns, wall time is %d ns", sum, rep.Cells[0].WallTimeNs)
	}
	if len(rep.Overlaps) != 1 {
		t.Errorf("cache-enabled run should produce a flush-overlap row, got %d", len(rep.Overlaps))
	}

	golden := filepath.Join("testdata", "golden_e10stat.md")
	got := []byte(text)
	if *harness.UpdateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("e10stat report diverges from golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
