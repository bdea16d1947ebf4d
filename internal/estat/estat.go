// Package estat defines the serializable experiment-statistics exchange
// format consumed by the e10stat analyzer and produced by FromResult (the
// -metrics-out flag of the workload binaries and of e10chaos -replay). An
// Input is one experiment cell's outcome: identity, timing, per-file
// phases, the Figure-5-style breakdown, and optionally the full metrics
// snapshot.
//
// Parse accepts an Input object or a Chrome trace-event file, and ParseAny
// adds the committed baselines and scale digests, read through the harness
// types that write them. Both are strict about malformed content: they
// return errors, never panic (there is a fuzz target holding Parse to that).
package estat

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/mpe"
)

// Schema is the current Input schema identifier.
const Schema = "e10stat/v1"

// PhaseTime is one file's write/close timing (the terms of Equation 1).
type PhaseTime struct {
	WriteNs     int64 `json:"write_ns"`
	CloseWaitNs int64 `json:"close_wait_ns"`
}

// BreakdownEntry is one stacked component of the paper's breakdown figures.
// Entries are ordered (stacking order), so the slice — not a map — carries
// them.
type BreakdownEntry struct {
	Phase string `json:"phase"`
	Ns    int64  `json:"ns"`
}

// Input is one experiment cell's outcome.
type Input struct {
	Schema       string  `json:"schema"`
	Workload     string  `json:"workload"`
	Case         string  `json:"case"`
	Cell         string  `json:"cell"` // "<aggregators>_<cb_mb>mb"
	Ranks        int     `json:"ranks"`
	Files        int     `json:"files"`
	WallTimeNs   int64   `json:"wall_time_ns"`
	ComputeNs    int64   `json:"compute_ns"`
	TotalBytes   int64   `json:"total_bytes"`
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// EventsDispatched is the kernel's total event count — the cost of the
	// run in simulator work, independent of virtual time. FailoverEpochs
	// counts aggregator-failover recoveries; non-zero only in crash runs.
	EventsDispatched int64             `json:"events_dispatched,omitempty"`
	FailoverEpochs   int64             `json:"failover_epochs,omitempty"`
	Phases           []PhaseTime       `json:"phases,omitempty"`
	Breakdown        []BreakdownEntry  `json:"breakdown,omitempty"`
	Metrics          *metrics.Snapshot `json:"metrics,omitempty"`
}

// Name renders the input's identity for report headings.
func (in Input) Name() string {
	n := in.Workload
	if n == "" {
		n = "unknown"
	}
	if in.Case != "" {
		n += "/" + in.Case
	}
	if in.Cell != "" {
		n += "/" + in.Cell
	}
	return n
}

// FromResult converts a run's outcome into an Input. The metrics snapshot
// is included when the run recorded one (Spec.Metrics); everything else
// derives from fields the harness always computes.
func FromResult(r *harness.Result) Input {
	// One compute phase per file, except that IncludeLastSync (the IOR
	// setup) drops the one after the final write.
	computes := r.Spec.NFiles
	if r.Spec.IncludeLastSync {
		computes--
	}
	in := Input{
		Schema:       Schema,
		Workload:     r.Spec.Workload.Name(),
		Case:         string(r.Spec.Case),
		Cell:         r.Spec.Label(),
		Ranks:        r.Spec.Cluster.Nodes * r.Spec.Cluster.RanksPerNode,
		Files:        r.Spec.NFiles,
		WallTimeNs:   int64(r.WallTime),
		ComputeNs:    int64(r.Spec.ComputeDelay) * int64(max(computes, 0)),
		TotalBytes:   r.TotalBytes,
		BandwidthGBs: r.BandwidthGBs,

		EventsDispatched: r.EventsDispatched,
		FailoverEpochs:   r.FailoverEpochs,
	}
	for _, ph := range r.Phases {
		in.Phases = append(in.Phases, PhaseTime{
			WriteNs:     int64(ph.WriteTime),
			CloseWaitNs: int64(ph.CloseWait),
		})
	}
	// Stacking order follows the paper's breakdown figures; zero phases are
	// kept so reports across cells stay column-aligned.
	for _, ph := range mpe.BreakdownPhases {
		in.Breakdown = append(in.Breakdown, BreakdownEntry{
			Phase: string(ph),
			Ns:    int64(r.Breakdown[ph]),
		})
	}
	if r.Metrics != nil {
		snap := r.Metrics.Snapshot()
		in.Metrics = &snap
	}
	return in
}

// Parse decodes report input from raw JSON. Accepted shapes:
//
//   - a single Input object, whose schema must be Schema,
//   - a Chrome trace-event file ({"traceEvents": [...]}, as written by
//     -trace), from which the phase breakdown and wall time are derived.
//
// Malformed input returns an error; Parse never panics.
func Parse(data []byte) ([]Input, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("estat: input is not a JSON object: %w", err)
	}
	if raw, ok := probe["traceEvents"]; ok {
		in, err := fromChrome(raw)
		if err != nil {
			return nil, err
		}
		return []Input{in}, nil
	}
	var in Input
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("estat: %w", err)
	}
	if err := validate(in); err != nil {
		return nil, err
	}
	return []Input{in}, nil
}

// validate rejects inputs a report could not be built from, and objects
// that are not e10stat inputs at all: every writer sets the schema.
func validate(in Input) error {
	if in.Schema != Schema {
		return fmt.Errorf("estat: schema %q is not an e10stat input (want %q)", in.Schema, Schema)
	}
	if in.WallTimeNs < 0 || in.ComputeNs < 0 || in.TotalBytes < 0 {
		return fmt.Errorf("estat: negative timing/size fields in input %q", in.Name())
	}
	for _, e := range in.Breakdown {
		if e.Ns < 0 {
			return fmt.Errorf("estat: negative breakdown entry %q in input %q", e.Phase, in.Name())
		}
	}
	return nil
}

// chromeEvent is the subset of the trace-event format the converter reads.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Ts   json.Number     `json:"ts"`
	Dur  json.Number     `json:"dur"`
	Tid  json.RawMessage `json:"tid"`
}

// fromChrome derives an Input from trace events: per-phase time is the
// maximum over tids of each tid's summed "phase"-category span durations
// (the cross-rank max the breakdown figures use), and wall time is the
// latest event end. Timestamps in the file are microseconds; the derived
// Input is nanoseconds.
func fromChrome(raw json.RawMessage) (Input, error) {
	var events []chromeEvent
	if err := json.Unmarshal(raw, &events); err != nil {
		return Input{}, fmt.Errorf("estat: traceEvents: %w", err)
	}
	perTid := make(map[string]map[string]int64) // tid -> phase -> summed ns
	var wallNs int64
	for _, ev := range events {
		ts, err := ev.Ts.Int64()
		if err != nil {
			ts = 0
		}
		dur, err := ev.Dur.Int64()
		if err != nil {
			dur = 0
		}
		if end := (ts + dur) * 1000; end > wallNs {
			wallNs = end
		}
		if ev.Cat != "phase" || ev.Ph != "X" {
			continue
		}
		tid := string(ev.Tid)
		m, ok := perTid[tid]
		if !ok {
			m = make(map[string]int64)
			perTid[tid] = m
		}
		m[ev.Name] += dur * 1000
	}
	maxPhase := make(map[string]int64)
	for _, m := range perTid {
		for ph, ns := range m {
			if ns > maxPhase[ph] {
				maxPhase[ph] = ns
			}
		}
	}
	in := Input{Schema: Schema, Workload: "trace", WallTimeNs: wallNs}
	phases := make([]string, 0, len(maxPhase))
	for ph := range maxPhase {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	for _, ph := range phases {
		in.Breakdown = append(in.Breakdown, BreakdownEntry{Phase: ph, Ns: maxPhase[ph]})
	}
	return in, nil
}
