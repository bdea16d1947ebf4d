package estat

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/harness"
)

// Artifact kinds, one per recognised file format.
const (
	KindStat       = "stat"       // e10stat/v1 inputs and Chrome traces
	KindBench      = "bench"      // e10bench/v1 (BENCH_<date>.json)
	KindScaleBench = "scalebench" // e10scalebench/v1 (BENCH_SCALE_<date>.json)
	KindScale      = "scale"      // scale digest goldens (testdata/scale_digest_*.json)
)

// Artifact is one parsed file of any recognised format. Exactly one of the
// payload fields is populated, selected by Kind. Each non-stat payload is
// the type its writer marshals.
type Artifact struct {
	Kind       string                    `json:"kind"`
	Inputs     []Input                   `json:"inputs,omitempty"`
	Bench      *harness.BenchReport      `json:"bench,omitempty"`
	ScaleBench *harness.ScaleBenchReport `json:"scalebench,omitempty"`
	Scale      *harness.ScaleGolden      `json:"scale,omitempty"`
}

// ParseAny decodes one of the five artifact shapes the repo's tools write:
// an e10stat input object or a Chrome trace (Parse), a bench or scale-bench
// baseline, or a scale digest golden ({"report": {...}, "digest": "..."}).
// The schema field (or the nested report) selects the decoder; anything
// else returns an error, never a panic.
func ParseAny(data []byte) (*Artifact, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("estat: artifact is not a JSON object: %w", err)
	}
	var schema string
	_ = json.Unmarshal(probe["schema"], &schema)
	_, golden := probe["report"]
	switch {
	case schema == harness.BenchSchema:
		rep, err := harness.ParseBench(data)
		if err != nil {
			return nil, fmt.Errorf("estat: %w", err)
		}
		return &Artifact{Kind: KindBench, Bench: rep}, nil
	case schema == harness.ScaleBenchSchema:
		rep, err := harness.ParseScaleBench(data)
		if err != nil {
			return nil, fmt.Errorf("estat: %w", err)
		}
		return &Artifact{Kind: KindScaleBench, ScaleBench: rep}, nil
	case golden:
		var g harness.ScaleGolden
		if err := json.Unmarshal(data, &g); err != nil {
			return nil, fmt.Errorf("estat: scale digest: %w", err)
		}
		if g.Report.Schema != harness.ScaleSchema {
			return nil, fmt.Errorf("estat: scale digest: schema %q (want %q)", g.Report.Schema, harness.ScaleSchema)
		}
		return &Artifact{Kind: KindScale, Scale: &g}, nil
	}
	ins, err := Parse(data)
	if err != nil {
		return nil, err
	}
	return &Artifact{Kind: KindStat, Inputs: ins}, nil
}

// RenderAny renders a mixed artifact set. Stat inputs from every artifact
// are combined into the standard report; each non-stat artifact appends its
// own section. Formats mirror Render: md, csv, or json.
func RenderAny(arts []*Artifact, format string) (string, error) {
	switch format {
	case FormatMarkdown, "", FormatCSV:
	case FormatJSON:
		b, err := json.MarshalIndent(arts, "", "  ")
		if err != nil {
			return "", fmt.Errorf("estat: %w", err)
		}
		return string(b) + "\n", nil
	default:
		return "", fmt.Errorf("estat: unknown format %q (want md, csv or json)", format)
	}
	var ins []Input
	for _, a := range arts {
		ins = append(ins, a.Inputs...)
	}
	var sb strings.Builder
	if len(ins) > 0 {
		text, err := Render(ins, format)
		if err != nil {
			return "", err
		}
		sb.WriteString(text)
	}
	for _, a := range arts {
		switch a.Kind {
		case KindBench:
			renderBench(&sb, a.Bench, format)
		case KindScaleBench:
			renderScaleBench(&sb, a.ScaleBench, format)
		case KindScale:
			renderScaleGolden(&sb, a.Scale, format)
		}
	}
	if sb.Len() == 0 {
		return "", fmt.Errorf("estat: no renderable artifacts")
	}
	return sb.String(), nil
}

func renderBench(sb *strings.Builder, f *harness.BenchReport, format string) {
	if format == FormatCSV {
		for _, s := range f.Scenarios {
			fmt.Fprintf(sb, "bench,%s,wall_time_ns,%d\n", s.Name, s.WallTimeNs)
			fmt.Fprintf(sb, "bench,%s,bandwidth_gbs,%.3f\n", s.Name, s.BandwidthGBs)
		}
		return
	}
	fmt.Fprintf(sb, "\n## bench matrix (%s, seed %d)\n\n", f.Schema, f.Seed)
	sb.WriteString("| scenario | wall (ms) | BW (GB/s) | not hidden (ms) |\n")
	sb.WriteString("|---|---:|---:|---:|\n")
	for _, s := range f.Scenarios {
		fmt.Fprintf(sb, "| %s | %s | %.2f | %s |\n",
			s.Name, ms(s.WallTimeNs), s.BandwidthGBs, ms(s.NotHiddenSyncNs))
	}
}

func renderScaleBench(sb *strings.Builder, f *harness.ScaleBenchReport, format string) {
	if format == FormatCSV {
		fmt.Fprintf(sb, "scalebench,%s/%d,wall_time_ns,%d\n", f.Variant, f.Ranks, f.WallTimeNs)
		fmt.Fprintf(sb, "scalebench,%s/%d,events,%d\n", f.Variant, f.Ranks, f.Events)
		fmt.Fprintf(sb, "scalebench,%s/%d,events_per_sec_floor,%.0f\n", f.Variant, f.Ranks, f.EventsPerSecFloor)
		if f.CritPathFloor > 0 {
			fmt.Fprintf(sb, "scalebench,%s/%d,critpath_floor,%.0f\n", f.Variant, f.Ranks, f.CritPathFloor)
		}
		return
	}
	fmt.Fprintf(sb, "\n## scale bench (%s)\n\n", f.Schema)
	fmt.Fprintf(sb, "- variant %s, %d ranks, seed %d\n", f.Variant, f.Ranks, f.Seed)
	fmt.Fprintf(sb, "- wall %s ms virtual, %d events, digest %s\n", ms(f.WallTimeNs), f.Events, f.Digest)
	fmt.Fprintf(sb, "- throughput floor %.0f events/sec (measured %.0f)\n", f.EventsPerSecFloor, f.EventsPerSec)
	if f.CritPathFloor > 0 {
		fmt.Fprintf(sb, "- critpath analyzer floor %.0f events/sec (measured %.0f)\n",
			f.CritPathFloor, f.CritPathEventsPerSec)
	}
}

func renderScaleGolden(sb *strings.Builder, f *harness.ScaleGolden, format string) {
	r := f.Report
	name := fmt.Sprintf("%s/%d", r.Variant, r.Ranks)
	if format == FormatCSV {
		fmt.Fprintf(sb, "scale,%s,wall_time_ns,%d\n", name, r.WallTimeNs)
		fmt.Fprintf(sb, "scale,%s,events,%d\n", name, r.Events)
		fmt.Fprintf(sb, "scale,%s,pfs_bytes,%d\n", name, r.PFSBytes)
		fmt.Fprintf(sb, "scale,%s,retransmits,%d\n", name, r.Retransmits)
		fmt.Fprintf(sb, "scale,%s,failover_epochs,%d\n", name, r.FailoverEpochs)
		for _, sh := range r.CritPath {
			fmt.Fprintf(sb, "scale_critpath,%s,%s,%d\n", name, sh.Category, sh.Ns)
		}
		return
	}
	fmt.Fprintf(sb, "\n## scale run (%s, %s)\n\n", r.Schema, name)
	fmt.Fprintf(sb, "- %d ranks on %d nodes, seed %d, drop %d%%\n", r.Ranks, r.Nodes, r.Seed, r.DropPct)
	fmt.Fprintf(sb, "- wall %s ms, %d events, PFS %d of %d expected bytes\n",
		ms(r.WallTimeNs), r.Events, r.PFSBytes, r.ExpectedBytes)
	fmt.Fprintf(sb, "- retransmits %d, net drops %d, failover epochs %d\n",
		r.Retransmits, r.NetDrops, r.FailoverEpochs)
	fmt.Fprintf(sb, "- digest %s\n", f.Digest)
	if len(r.CritPath) > 0 {
		sb.WriteString("\n| critical path category | time (ms) | share |\n|---|---:|---:|\n")
		for _, sh := range r.CritPath {
			fmt.Fprintf(sb, "| %s | %s | %s |\n", sh.Category, ms(sh.Ns), pctOf(sh.Ns, r.WallTimeNs))
		}
	}
}
