package harness

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/critpath"
)

// ScaleBenchSchema identifies the kilo-rank benchmark baseline format
// (BENCH_SCALE_<date>.json).
const ScaleBenchSchema = "e10scalebench/v1"

// ScaleBenchRanks is the scale the bench tier runs at: the largest golden
// cell, 4096 ranks on 512 nodes.
const ScaleBenchRanks = 4096

// ScaleBenchReport is the kilo-rank kernel-throughput baseline. Digest,
// WallTimeNs and Events are deterministic and must reproduce exactly;
// EventsPerSec is the host-side measurement (the median of the recorded
// runs in a baseline), and EventsPerSecFloor the gate derived from the
// runs' spread — a later run whose throughput falls below the floor fails
// the compare, catching kernel-performance regressions that virtual time
// cannot see.
type ScaleBenchReport struct {
	Schema            string       `json:"schema"`
	Variant           ScaleVariant `json:"variant"`
	Ranks             int          `json:"ranks"`
	Seed              int64        `json:"seed"`
	Digest            string       `json:"digest"`
	WallTimeNs        int64        `json:"wall_time_ns"`
	Events            int64        `json:"events"`
	EventsPerSec      float64      `json:"events_per_sec"`
	EventsPerSecFloor float64      `json:"events_per_sec_floor"`
	// CritPathEventsPerSec is the host-side throughput of the critical-path
	// analyzer over a synthetic 4096-rank trace (trace events consumed per
	// second), and CritPathFloor the conservative gate derived from it. Both
	// are zero in baselines recorded before the analyzer existed, which
	// disables the gate.
	CritPathEventsPerSec float64 `json:"critpath_events_per_sec,omitempty"`
	CritPathFloor        float64 `json:"critpath_floor,omitempty"`
}

// scaleBenchRecordRuns is how many times a record runs the bench: enough
// for quartiles that one noisy run cannot move.
const scaleBenchRecordRuns = 10

// scaleBenchFloorDiv bounds a recorded floor from below by measured/2, the
// fixed rule of the first baselines, so a record with a wide spread never
// gates more loosely than that rule did.
const scaleBenchFloorDiv = 2

// RunScaleBench runs the 4096-rank clean collective write once and returns
// its throughput report, with no floors set.
func RunScaleBench(seed int64) (*ScaleBenchReport, error) {
	rep, err := RunScale(ScaleConfig{Variant: ScaleClean, Ranks: ScaleBenchRanks, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &ScaleBenchReport{
		Schema:               ScaleBenchSchema,
		Variant:              ScaleClean,
		Ranks:                rep.Ranks,
		Seed:                 rep.Seed,
		Digest:               rep.Digest(),
		WallTimeNs:           rep.WallTimeNs,
		Events:               rep.Events,
		EventsPerSec:         rep.EventsPerSec,
		CritPathEventsPerSec: measureCritPathThroughput(),
	}, nil
}

// RecordScaleBench runs the bench scaleBenchRecordRuns times and returns
// the baseline: the deterministic fields, which every run must reproduce;
// each throughput's median; and each floor at q1 - 3×IQR of its runs, but
// never below median/scaleBenchFloorDiv.
func RecordScaleBench(seed int64) (*ScaleBenchReport, error) {
	var base *ScaleBenchReport
	var evs, cps []float64
	for i := 0; i < scaleBenchRecordRuns; i++ {
		rep, err := RunScaleBench(seed)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = rep
		} else if err := sameScaleRun(base, rep); err != nil {
			return nil, err
		}
		evs = append(evs, rep.EventsPerSec)
		cps = append(cps, rep.CritPathEventsPerSec)
	}
	base.EventsPerSec, base.EventsPerSecFloor = spreadFloor(evs)
	base.CritPathEventsPerSec, base.CritPathFloor = spreadFloor(cps)
	return base, nil
}

// spreadFloor returns the median of xs and the floor a baseline records
// for them: q1 - 3×IQR, raised to median/scaleBenchFloorDiv when the
// spread is wide. Quartiles interpolate linearly between order statistics.
func spreadFloor(xs []float64) (median, floor float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	median = q(0.5)
	q1, q3 := q(0.25), q(0.75)
	return median, max(q1-3*(q3-q1), median/scaleBenchFloorDiv)
}

// critPathBenchIters trades measurement noise against record time: three
// ~35ms analyzer passes keep the host-side cost of a record or compare run
// around a tenth of a second.
const critPathBenchIters = 3

// measureCritPathThroughput times the critical-path analyzer over the
// synthetic 4096-rank trace and returns trace events consumed per second.
func measureCritPathThroughput() float64 {
	tr := critpath.SyntheticTrace(ScaleBenchRanks)
	n := len(tr.Events())
	start := time.Now()
	for i := 0; i < critPathBenchIters; i++ {
		critpath.Analyze(tr, 0)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(n*critPathBenchIters) / elapsed
}

// MarshalScaleBench renders a report as the committed JSON baseline.
func MarshalScaleBench(rep *ScaleBenchReport) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scalebench: %w", err)
	}
	return append(b, '\n'), nil
}

// ParseScaleBench decodes a BENCH_SCALE_*.json baseline.
func ParseScaleBench(data []byte) (*ScaleBenchReport, error) {
	var rep ScaleBenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("scalebench: %w", err)
	}
	if rep.Schema != ScaleBenchSchema {
		return nil, fmt.Errorf("scalebench: unsupported schema %q (want %q)", rep.Schema, ScaleBenchSchema)
	}
	return &rep, nil
}

// CompareScaleBench gates cur against the committed baseline: the digest,
// virtual wall time and event count must reproduce exactly (the simulation
// is deterministic), and the measured throughput must not fall below the
// recorded floor.
func CompareScaleBench(base, cur *ScaleBenchReport) error {
	if err := sameScaleRun(base, cur); err != nil {
		return err
	}
	if cur.EventsPerSec < base.EventsPerSecFloor {
		return fmt.Errorf("scalebench: %.0f events/sec is below the recorded floor %.0f (baseline measured %.0f)",
			cur.EventsPerSec, base.EventsPerSecFloor, base.EventsPerSec)
	}
	if base.CritPathFloor > 0 && cur.CritPathEventsPerSec < base.CritPathFloor {
		return fmt.Errorf("scalebench: critpath analyzer at %.0f events/sec is below the recorded floor %.0f (baseline measured %.0f)",
			cur.CritPathEventsPerSec, base.CritPathFloor, base.CritPathEventsPerSec)
	}
	return nil
}

// sameScaleRun fails unless cur reproduces base's deterministic fields.
func sameScaleRun(base, cur *ScaleBenchReport) error {
	if cur.Digest != base.Digest {
		return fmt.Errorf("scalebench: digest %s, baseline %s — the simulation diverged", cur.Digest, base.Digest)
	}
	if cur.WallTimeNs != base.WallTimeNs || cur.Events != base.Events {
		return fmt.Errorf("scalebench: wall=%dns events=%d, baseline wall=%dns events=%d",
			cur.WallTimeNs, cur.Events, base.WallTimeNs, base.Events)
	}
	return nil
}
