package estat

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/metrics"
)

// TestParseAnyCommittedArtifacts round-trips every committed artifact the
// repo carries — scale digest goldens and the bench/scale-bench baselines —
// through the artifact union: each must parse to its kind and render in
// every format, deterministically.
func TestParseAnyCommittedArtifacts(t *testing.T) {
	globs := []struct {
		pattern string
		kind    string
	}{
		{"../harness/testdata/scale_digest_*.json", KindScale},
		{"../../BENCH_SCALE_*.json", KindScaleBench},
		{"../../BENCH_2*.json", KindBench},
	}
	seen := 0
	for _, g := range globs {
		files, err := filepath.Glob(g.pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			path := path
			t.Run(filepath.Base(path), func(t *testing.T) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				art, err := ParseAny(data)
				if err != nil {
					t.Fatal(err)
				}
				if art.Kind != g.kind {
					t.Fatalf("kind = %q, want %q", art.Kind, g.kind)
				}
				for _, format := range []string{FormatMarkdown, FormatCSV, FormatJSON} {
					a, err := RenderAny([]*Artifact{art}, format)
					if err != nil {
						t.Fatalf("%s: %v", format, err)
					}
					if a == "" {
						t.Fatalf("%s: empty rendering", format)
					}
					b, err := RenderAny([]*Artifact{art}, format)
					if err != nil || a != b {
						t.Fatalf("%s: nondeterministic rendering", format)
					}
				}
				if art.Kind == KindScale && art.Scale.Digest == "" {
					t.Error("scale digest golden lost its digest")
				}
				if art.Kind == KindBench && len(art.Bench.Scenarios) == 0 {
					t.Error("bench baseline has no scenarios")
				}
			})
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no committed artifacts found; the globs are stale")
	}
}

// TestParseAnyStatInput reads a plain e10stat input as KindStat and
// rejects an array of them: no tool writes one.
func TestParseAnyStatInput(t *testing.T) {
	art, err := ParseAny([]byte(sampleInput))
	if err != nil {
		t.Fatal(err)
	}
	if art.Kind != KindStat || len(art.Inputs) != 1 {
		t.Fatalf("kind = %q with %d inputs, want stat/1", art.Kind, len(art.Inputs))
	}
	if art, err := ParseAny([]byte("[" + sampleInput + "]")); err == nil {
		t.Errorf("input array accepted as %q", art.Kind)
	}
}

// TestParseAnyRejectsMalformed holds the union to Parse's contract: errors,
// never panics.
func TestParseAnyRejectsMalformed(t *testing.T) {
	for _, data := range []string{
		"", "{", `{"schema": "e10bench/v1", "scenarios": 7}`,
		`{"schema": "e10critpath/v1", "wall_ns": "x"}`,
	} {
		if _, err := ParseAny([]byte(data)); err == nil {
			t.Errorf("ParseAny(%q) accepted malformed input", data)
		}
	}
}

// TestParseAnyRejectsUnwrittenShapes reads only the five shapes the repo's
// tools write. Every other JSON file is an error, not an empty "unknown"
// cell: unrelated objects, e10stat's own JSON output, input arrays, a
// digest golden of another schema, a bare scale report and a critical-path
// report.
func TestParseAnyRejectsUnwrittenShapes(t *testing.T) {
	self, err := RenderAny([]*Artifact{{Kind: KindStat, Inputs: []Input{{Schema: Schema}}}}, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	critJSON, err := json.Marshal(critpath.Analyze(critpath.SyntheticTrace(8), 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"unrelated object":   `{"foo":1}`,
		"e10stat json":       self,
		"foreign golden":     `{"report":{"schema":"nope"},"digest":"x"}`,
		"bare scale report":  `{"schema":"e10scale/v1","variant":"clean","ranks":1024}`,
		"critical-path json": string(critJSON),
	} {
		if art, err := ParseAny([]byte(data)); err == nil {
			t.Errorf("%s: ParseAny accepted it as %q", name, art.Kind)
		}
		if problems := LintData([]byte(data), 0); len(problems) != 1 || !strings.HasPrefix(problems[0], "unparseable") {
			t.Errorf("%s: lint = %v, want it unparseable", name, problems)
		}
	}
}

// TestRenderAnyRejectsUnknownFormat checks the format whatever artifacts
// are given, not only when stat inputs are among them.
func TestRenderAnyRejectsUnknownFormat(t *testing.T) {
	bench := &Artifact{Kind: KindBench, Bench: &harness.BenchReport{Schema: harness.BenchSchema}}
	stat := &Artifact{Kind: KindStat, Inputs: []Input{{Schema: Schema}}}
	for _, arts := range [][]*Artifact{{bench}, {stat}, {stat, bench}} {
		if _, err := RenderAny(arts, "xml"); err == nil {
			t.Errorf("%d artifacts of kind %q first: format xml accepted", len(arts), arts[0].Kind)
		}
	}
}

// lintSnapshot builds a metrics snapshot whose counter carries n distinct
// values of one label key.
func lintSnapshot(n int) *metrics.Snapshot {
	snap := &metrics.Snapshot{}
	for i := 0; i < n; i++ {
		snap.Counters = append(snap.Counters, metrics.CounterSnap{
			Name:   "cache_synced_bytes_total",
			Labels: map[string]string{"rank": string(rune('a'+i%26)) + string(rune('a'+i/26))},
			Total:  1,
		})
	}
	return snap
}

func TestLintInputsCardinality(t *testing.T) {
	bounded := Input{Schema: Schema, Metrics: lintSnapshot(4)}
	if problems := LintInputs([]Input{bounded}, 8); len(problems) != 0 {
		t.Errorf("bounded labels flagged: %v", problems)
	}
	unbounded := Input{Schema: Schema, Metrics: lintSnapshot(12)}
	problems := LintInputs([]Input{unbounded}, 8)
	if len(problems) != 1 {
		t.Fatalf("want 1 problem, got %v", problems)
	}
	if !strings.Contains(problems[0], "cache_synced_bytes_total") ||
		!strings.Contains(problems[0], `"rank"`) {
		t.Errorf("problem should name the metric and label key: %s", problems[0])
	}
}

func TestLintDataChromeTrace(t *testing.T) {
	var evs []map[string]interface{}
	for i := 0; i < 80; i++ {
		evs = append(evs, map[string]interface{}{
			"name": "write_" + string(rune('a'+i%26)) + string(rune('a'+i/26)),
			"cat":  "phase", "ph": "X", "ts": i, "dur": 1, "tid": 0,
		})
	}
	data, err := json.Marshal(map[string]interface{}{"traceEvents": evs})
	if err != nil {
		t.Fatal(err)
	}
	problems := LintData(data, 0) // 0 -> DefaultLintMax (64)
	if len(problems) != 1 || !strings.Contains(problems[0], `"phase"`) {
		t.Fatalf("want one problem naming the category, got %v", problems)
	}
	if problems := LintData(data, 100); len(problems) != 0 {
		t.Errorf("under a higher budget the trace should lint clean: %v", problems)
	}
}

// TestLintDataCleanArtifacts runs the lint over the committed artifacts:
// all of them must be clean — the repo's own metric and trace vocabularies
// are bounded by design.
func TestLintDataCleanArtifacts(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob("../harness/testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	if len(files) == 0 {
		t.Fatal("no committed artifacts found")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if problems := LintData(data, 0); len(problems) != 0 {
			t.Errorf("%s: %v", path, problems)
		}
	}
}
