package main

import (
	"fmt"
	"io"

	"repro/internal/critpath"
	"repro/internal/mpe"
)

// phaseMetrics map detail metrics to the mpe breakdown phases (the stacked
// bars of the paper's Figs 5, 6, 8 and 10): the slowest rank's virtual
// time in the phase, summed over the rep's cells.
var phaseMetrics = []struct {
	name string
	ph   mpe.Phase
}{
	{"mpe.calc_offsets_s", mpe.PhaseCalc},
	{"mpe.shuffle_all2all_s", mpe.PhaseShuffleA2A},
	{"mpe.exchange_waitall_s", mpe.PhaseExchWaitall},
	{"mpe.write_s", mpe.PhaseWrite},
	{"mpe.post_write_s", mpe.PhasePostWrite},
	{"mpe.not_hidden_sync_s", mpe.PhaseNotHiddenSync},
}

func critCategories() []string {
	out := make([]string, len(critpath.Categories))
	for i, c := range critpath.Categories {
		out[i] = string(c)
	}
	return out
}

// tracedMetrics derives the per-layer metrics of one traced rep. Every
// workload gives the critical-path shares and the counts its entry point
// returns. A cell that carries its trace and registry (harness.Run,
// readback_64) also gives the detail metrics: registry counters and
// histograms, mpe phases, and the host time of the benchmark's own calls
// into the analysis and export layers. The critical path must attribute
// all of each cell's virtual wall time.
func tracedMetrics(r *repResult, spans *spanLog) (map[string]float64, error) {
	m := map[string]float64{"sim.events": float64(r.events())}
	for _, name := range entryCounters {
		m[name] = r.extra[name]
	}
	for _, d := range detailLayer() {
		if v, ok := r.extra[d.name]; ok {
			m[d.name] = v
		}
	}
	critNs := make(map[critpath.Category]int64)
	var wall int64
	for _, c := range r.cells {
		shares := c.crit
		if c.tr != nil && c.reg != nil {
			shares = traceDetail(m, c, spans)
		}
		if shares == nil {
			return nil, fmt.Errorf("%s: traced rep recorded no critical path", c.name)
		}
		var attributed int64
		for _, s := range shares {
			critNs[s.Category] += s.Ns
			attributed += s.Ns
		}
		if attributed != c.wallNs {
			return nil, fmt.Errorf("%s: critical path attributes %d ns of %d ns wall time", c.name, attributed, c.wallNs)
		}
		wall += c.wallNs
	}
	for _, cat := range critpath.Categories {
		m["critpath."+string(cat)] = float64(critNs[cat]) / float64(wall)
	}
	return m, nil
}

// traceDetail adds cell c's detail metrics to m and returns its
// critical-path shares. A series the run never touched reads 0: the
// registry was there and counted nothing.
func traceDetail(m map[string]float64, c cell, spans *spanLog) []critpath.Share {
	var rep *critpath.Report
	m["critpath.analyze_s"] += spans.timed("critpath.Analyze", func() {
		rep = critpath.Analyze(c.tr, c.wallNs)
	}).Seconds()
	m["critpath.timeline_s"] += spans.timed("critpath.BuildTimeline", func() {
		critpath.BuildTimeline(c.tr, c.wallNs, critpath.DefaultTimelineBuckets)
	}).Seconds()
	// Writing to io.Discard cannot fail.
	m["trace.chrome_s"] += spans.timed("trace.WriteChrome", func() { _ = c.tr.WriteChrome(io.Discard) }).Seconds()
	m["trace.summary_s"] += spans.timed("trace.Summary", func() { _ = c.tr.Summary() }).Seconds()
	m["metrics.text_s"] += spans.timed("metrics.Registry.Text", func() { _ = c.reg.Text() }).Seconds()
	m["trace.events"] += float64(c.tr.Len())

	for _, cm := range counterMetrics {
		v := float64(c.reg.SumCounters(cm.series))
		if cm.unit == "MiB" {
			v /= mib
		}
		m[cm.name] += v
	}
	snap := c.reg.Snapshot()
	for _, hm := range histMetrics {
		worst := m[hm.name]
		for _, h := range snap.Histograms {
			if h.Name != hm.series {
				continue
			}
			p := h.P99
			if hm.pct == 50 {
				p = h.P50
			}
			worst = max(worst, float64(p)/1e6)
		}
		m[hm.name] = worst
	}
	for _, p := range phaseMetrics {
		m[p.name] += c.breakdown[p.ph].Seconds()
	}
	return rep.Shares
}
