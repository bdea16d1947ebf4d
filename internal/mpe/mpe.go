// Package mpe provides the phase instrumentation used to reproduce the
// paper's collective-I/O cost breakdowns (Figures 5, 6, 8 and 10). On the
// real system these numbers come from MPE state logging inside ROMIO; here
// every rank records named intervals in virtual time and the harness
// aggregates them across ranks.
package mpe

import (
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Phase names one instrumented component of the collective write path.
// The names match the stacked components in the paper's breakdown figures.
type Phase string

// Phases of the collective write path (Figure 2 of the paper), plus the
// cache-specific not_hidden_sync term of Equation 1.
const (
	PhaseOpen          Phase = "open"
	PhaseCalc          Phase = "calc_offsets"     // offset exchange + file-domain computation
	PhaseShuffleA2A    Phase = "shuffle_all2all"  // MPI_Alltoall dissemination
	PhaseExchWaitall   Phase = "exchange_waitall" // MPI_Waitall of the data exchange
	PhasePack          Phase = "pack"             // filling the collective buffer
	PhaseWrite         Phase = "write"            // ADIO_WriteContig
	PhasePostWrite     Phase = "post_write"       // final MPI_Allreduce (error exchange)
	PhaseClose         Phase = "close"
	PhaseNotHiddenSync Phase = "not_hidden_sync" // T_s(k) - C(k+1) when positive
)

// BreakdownPhases lists the phases shown in the paper's breakdown figures,
// in stacking order.
var BreakdownPhases = []Phase{
	PhaseCalc, PhaseShuffleA2A, PhaseExchWaitall, PhasePack,
	PhaseWrite, PhasePostWrite, PhaseNotHiddenSync,
}

// phases lists every named phase; a phase's position here is its index in
// a Log's fixed-size tables.
var phases = [...]Phase{
	PhaseOpen, PhaseCalc, PhaseShuffleA2A, PhaseExchWaitall, PhasePack,
	PhaseWrite, PhasePostWrite, PhaseClose, PhaseNotHiddenSync,
}

// index returns ph's position in phases. A phase outside the named
// constants is a programming error: it panics and names the phase.
func (ph Phase) index() int {
	for i, p := range phases {
		if p == ph {
			return i
		}
	}
	panic("mpe: unknown phase " + strconv.Quote(string(ph)))
}

// Log accumulates per-phase time on one rank. The zero value is unusable;
// use NewLog.
type Log struct {
	totals   [len(phases)]sim.Time
	tracer   *trace.Tracer
	track    trace.TrackID
	registry *metrics.Registry
	rank     string
	hists    *[len(phases)]*metrics.Histogram // bound phases' histograms, resolved on first Add
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{} }

// Add records d of time spent in phase ph.
func (l *Log) Add(ph Phase, d sim.Time) {
	if l == nil || d < 0 {
		return
	}
	i := ph.index()
	l.totals[i] += d
	l.phaseHist(i).Observe(int64(d))
}

// Total returns the accumulated time in ph.
func (l *Log) Total(ph Phase) sim.Time {
	if l == nil {
		return 0
	}
	return l.totals[ph.index()]
}

// BindTracer mirrors every phase interval recorded through Span.End onto
// the given tracer track as a "phase"-category span, so MPE's existing
// instrumentation of the collective write path flows into exported traces
// without touching the call sites.
func (l *Log) BindTracer(tr *trace.Tracer, tk trace.TrackID) {
	if l == nil {
		return
	}
	l.tracer = tr
	l.track = tk
}

// BindMetrics mirrors every phase interval recorded through Span.End (and
// direct Add calls) into a per-rank, per-phase duration histogram in the
// given registry, labelled {layer=adio, phase=<ph>, rank=<rank>}. Like
// BindTracer, it records values only and never perturbs virtual time.
func (l *Log) BindMetrics(m *metrics.Registry, rank int) {
	if l == nil || m == nil {
		return
	}
	l.registry = m
	l.rank = strconv.Itoa(rank)
	l.hists = new([len(phases)]*metrics.Histogram)
}

// phaseHist resolves (and caches) the histogram of phases[i], or nil when
// no registry is bound.
func (l *Log) phaseHist(i int) *metrics.Histogram {
	if l.hists == nil {
		return nil
	}
	h := l.hists[i]
	if h == nil {
		h = l.registry.Histogram("phase_ns",
			metrics.L(metrics.KeyLayer, "adio"),
			metrics.L(metrics.KeyPhase, string(phases[i])),
			metrics.L(metrics.KeyRank, l.rank))
		l.hists[i] = h
	}
	return h
}

// Span measures one interval: s := StartSpan(now) ... s.End(log, ph, now).
type Span struct{ start sim.Time }

// StartSpan begins an interval at the given virtual time.
func StartSpan(now sim.Time) Span { return Span{start: now} }

// End records the interval [start, now) into l under ph.
func (s Span) End(l *Log, ph Phase, now sim.Time) {
	l.Add(ph, now-s.start)
	if l != nil && l.tracer != nil && now > s.start {
		l.tracer.SpanAt(l.track, "phase", string(ph), int64(s.start), int64(now))
	}
}

// Breakdown aggregates one phase across many rank logs.
type Breakdown struct {
	Max  sim.Time // critical-path view: the slowest rank's total
	Mean sim.Time
	Sum  sim.Time
}

// Aggregate computes the cross-rank breakdown of ph over logs, skipping
// nils (non-participating ranks).
func Aggregate(logs []*Log, ph Phase) Breakdown {
	var b Breakdown
	n := 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		t := l.Total(ph)
		b.Sum += t
		if t > b.Max {
			b.Max = t
		}
		n++
	}
	if n > 0 {
		b.Mean = b.Sum / sim.Time(n)
	}
	return b
}
