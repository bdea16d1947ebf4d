package critpath

import (
	"encoding/json"
	"fmt"
	"strings"
)

// msStr renders nanoseconds as milliseconds with microsecond precision using
// integer arithmetic only, keeping every rendering byte-deterministic.
func msStr(ns int64) string {
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03dms", neg, ns/1_000_000, (ns%1_000_000)/1_000)
}

// pctX10 renders an x10 integer percentage ("123" -> "12.3%").
func pctX10(x int64) string {
	return fmt.Sprintf("%d.%d%%", x/10, x%10)
}

// shareX10 returns part/total as an x10 integer percentage.
func shareX10(part, total int64) int64 {
	if total == 0 {
		return 0
	}
	return part * 1000 / total
}

// Markdown renders the critical-path report for terminals and docs.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## critical path (%s)\n\n", r.Schema)
	fmt.Fprintf(&b, "wall %s, attributed %s (%s), start track %q, %d segments, %d message edges\n\n",
		msStr(r.WallNs), msStr(r.AttributedNs), pctX10(shareX10(r.AttributedNs, r.WallNs)),
		r.StartTrack, r.Segments, len(r.Edges))
	b.WriteString("| category | time | share | segments |\n|---|---:|---:|---:|\n")
	for _, sh := range r.Shares {
		fmt.Fprintf(&b, "| %s | %s | %s | %d |\n",
			sh.Category, msStr(sh.Ns), pctX10(shareX10(sh.Ns, r.AttributedNs)), sh.Segments)
	}
	if len(r.WhatIf) > 0 {
		b.WriteString("\n### what-if (Eq. 1 style, lower bounds)\n\n")
		b.WriteString("| scenario | category | saved | new wall | reduction |\n|---|---|---:|---:|---:|\n")
		for _, w := range r.WhatIf {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
				w.Scenario, w.Category, msStr(w.SavedNs), msStr(w.NewWallNs), pctX10(w.ReductionPctX10))
		}
	}
	if len(r.Stragglers) > 0 {
		b.WriteString("\n### stragglers (on-path time per rank)\n\n")
		b.WriteString("| track | on path | top category |\n|---|---:|---|\n")
		for _, s := range r.Stragglers {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", s.Track, msStr(s.OnPathNs), s.Top)
		}
	}
	if len(r.TopSegments) > 0 {
		b.WriteString("\n### longest path segments\n\n")
		b.WriteString("| track | from | to | category | via |\n|---|---:|---:|---|---|\n")
		for _, s := range r.TopSegments {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
				s.Track, msStr(s.FromNs), msStr(s.ToNs), s.Category, s.Via)
		}
	}
	if len(r.Edges) > 0 {
		n := len(r.Edges)
		shown := n
		if shown > 12 {
			shown = 12
		}
		fmt.Fprintf(&b, "\n### message edges on the path (%d total, first %d)\n\n", n, shown)
		b.WriteString("| id | from | to | send | recv | bytes |\n|---:|---|---|---:|---:|---:|\n")
		for _, e := range r.Edges[:shown] {
			fmt.Fprintf(&b, "| %d | %s | %s | %s | %s | %d |\n",
				e.ID, e.From, e.To, msStr(e.SendNs), msStr(e.RecvNs), e.Bytes)
		}
	}
	return b.String()
}

// CSV renders the report as section-tagged rows.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString("section,key,category,ns,extra\n")
	fmt.Fprintf(&b, "summary,wall_ns,,%d,\n", r.WallNs)
	fmt.Fprintf(&b, "summary,attributed_ns,,%d,%s\n", r.AttributedNs, r.StartTrack)
	for _, sh := range r.Shares {
		fmt.Fprintf(&b, "share,%s,%s,%d,%d\n", sh.Category, sh.Category, sh.Ns, sh.Segments)
	}
	for _, w := range r.WhatIf {
		fmt.Fprintf(&b, "whatif,%s,%s,%d,%d\n", w.Scenario, w.Category, w.SavedNs, w.NewWallNs)
	}
	for _, s := range r.Stragglers {
		fmt.Fprintf(&b, "straggler,%s,%s,%d,\n", s.Track, s.Top, s.OnPathNs)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(&b, "edge,%d,,%d,%s->%s\n", e.ID, e.RecvNs-e.SendNs, e.From, e.To)
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() (string, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// ParseReport decodes a report produced by (*Report).JSON, validating the
// schema. It never panics on malformed input.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("critpath: parse report: %w", err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("critpath: parse report: schema %q, want %q", r.Schema, ReportSchema)
	}
	return &r, nil
}

// Markdown renders the timeline as a bucketed table.
func (t *Timeline) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## run timeline (%s)\n\n", t.Schema)
	fmt.Fprintf(&b, "wall %s in %d buckets of %s\n\n", msStr(t.WallNs), t.Buckets, msStr(t.WallNs/int64(max(t.Buckets, 1))))
	b.WriteString("| series |")
	for _, te := range t.BucketNs {
		fmt.Fprintf(&b, " %s |", msStr(te))
	}
	b.WriteString("\n|---|")
	for range t.BucketNs {
		b.WriteString("---:|")
	}
	b.WriteString("\n")
	for _, s := range t.Series {
		fmt.Fprintf(&b, "| %s |", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, " %d |", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the timeline as long-form rows.
func (t *Timeline) CSV() string {
	var b strings.Builder
	b.WriteString("series,bucket_end_ns,value\n")
	for _, s := range t.Series {
		for i, v := range s.Values {
			fmt.Fprintf(&b, "%s,%d,%d\n", s.Name, t.BucketNs[i], v)
		}
	}
	return b.String()
}

// JSON renders the timeline as indented JSON.
func (t *Timeline) JSON() (string, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// ParseTimeline decodes a timeline produced by (*Timeline).JSON, validating
// the schema. It never panics on malformed input.
func ParseTimeline(data []byte) (*Timeline, error) {
	var t Timeline
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("critpath: parse timeline: %w", err)
	}
	if t.Schema != TimelineSchema {
		return nil, fmt.Errorf("critpath: parse timeline: schema %q, want %q", t.Schema, TimelineSchema)
	}
	return &t, nil
}
