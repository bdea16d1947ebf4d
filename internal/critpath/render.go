package critpath

import (
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
	fmt.Fprintf(&b, "## critical path (%s)\n\n", ReportSchema)
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

// Markdown renders the timeline as a bucketed table.
func (t *Timeline) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## run timeline (%s)\n\n", TimelineSchema)
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
