package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// spanStat aggregates all spans sharing one (category, name) pair. A
// station span's name is its station's kind ("pfs.tgt"), shared by every
// station of that kind, so its row is named by its track ("pfs.tgt1")
// instead: that keeps one hot or slowed target or node visible.
type spanStat struct {
	cat, name string
	count     int64
	total     int64
	max       int64
}

// topSpans returns per-(cat, name) span aggregates sorted by total virtual
// time descending, ties broken by category then name so the order is total.
// Station spans are keyed by their track's name, as spanStat says.
func (t *Tracer) topSpans() []spanStat {
	if t == nil {
		return nil
	}
	idx := make(map[[2]string]int)
	var stats []spanStat
	for i := range t.events {
		ev := &t.events[i]
		if ev.Kind != KindSpan {
			continue
		}
		name := ev.Name
		if ev.Cat == "station" && ev.Track >= 0 && int(ev.Track) < len(t.tracks) {
			name = t.tracks[ev.Track].name
		}
		key := [2]string{ev.Cat, name}
		j, ok := idx[key]
		if !ok {
			j = len(stats)
			stats = append(stats, spanStat{cat: ev.Cat, name: name})
			idx[key] = j
		}
		st := &stats[j]
		st.count++
		st.total += ev.Dur
		if ev.Dur > st.max {
			st.max = ev.Dur
		}
	}
	sort.Slice(stats, func(a, b int) bool {
		if stats[a].total != stats[b].total {
			return stats[a].total > stats[b].total
		}
		if stats[a].cat != stats[b].cat {
			return stats[a].cat < stats[b].cat
		}
		return stats[a].name < stats[b].name
	})
	return stats
}

// WriteSummary writes a plain-text digest of the trace: event/track totals,
// the top span aggregates by total virtual time, and every counter series'
// high-water mark. The output is deterministic for a deterministic trace.
func (t *Tracer) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t == nil {
		fmt.Fprintln(bw, "trace: disabled")
		return bw.Flush()
	}
	fmt.Fprintf(bw, "trace summary: %d events on %d tracks\n", len(t.events), len(t.tracks))

	const topN = 24
	stats := t.topSpans()
	if len(stats) > 0 {
		fmt.Fprintf(bw, "top spans by total virtual time:\n")
		fmt.Fprintf(bw, "  %-14s %-22s %8s %14s %14s\n", "CAT", "NAME", "COUNT", "TOTAL", "MAX")
		for i, st := range stats {
			if i >= topN {
				fmt.Fprintf(bw, "  (+%d more)\n", len(stats)-topN)
				break
			}
			fmt.Fprintf(bw, "  %-14s %-22s %8d %14s %14s\n",
				st.cat, st.name, st.count, fmtDur(st.total), fmtDur(st.max))
		}
	}
	if len(t.counters) > 0 {
		fmt.Fprintf(bw, "counter high-water marks:\n")
		fmt.Fprintf(bw, "  %-38s %12s %12s %10s\n", "COUNTER", "MAX", "LAST", "SAMPLES")
		// Sort by track then first sample time (ties by name): registration
		// order depends on how runs interleave stations (faults can reorder
		// station start between -trace and -trace-summary runs), but track
		// and first-sample time are properties of the run itself.
		counters := make([]counterStat, len(t.counters))
		copy(counters, t.counters)
		sort.Slice(counters, func(a, b int) bool {
			if counters[a].track != counters[b].track {
				return counters[a].track < counters[b].track
			}
			if counters[a].first != counters[b].first {
				return counters[a].first < counters[b].first
			}
			return counters[a].name < counters[b].name
		})
		for _, c := range counters {
			label := t.tracks[c.track].name + ":" + c.name
			fmt.Fprintf(bw, "  %-38s %12d %12d %10d\n", label, c.max, c.last, c.samples)
		}
	}
	return bw.Flush()
}

// Summary returns WriteSummary's output as a string.
func (t *Tracer) Summary() string {
	var sb strings.Builder
	t.WriteSummary(&sb)
	return sb.String()
}

// fmtDur renders virtual nanoseconds with a human unit using integer
// arithmetic only, keeping summaries byte-deterministic across platforms.
func fmtDur(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%d.%03ds", ns/1_000_000_000, ns%1_000_000_000/1_000_000)
	case ns >= 1_000_000:
		return fmt.Sprintf("%d.%03dms", ns/1_000_000, ns%1_000_000/1_000)
	case ns >= 1_000:
		return fmt.Sprintf("%d.%03dus", ns/1_000, ns%1_000)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
