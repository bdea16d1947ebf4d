// Package fault is a deterministic, seed-independent fault-schedule engine
// for the simulated cluster: timed faults are injected into every modelled
// hardware layer — SSD failure and ENOSPC (internal/nvm), parallel-file-
// system target outage and transient slowdown (internal/pfs), NIC/link
// degradation (internal/netsim) — from a declarative schedule, a list of
// Fault values written in code or parsed from a textual spec (Parse), so
// whole fault scenarios replay bit-for-bit from one config.
//
// Faults fire as kernel callbacks at exact virtual times: a schedule armed
// on a seeded kernel perturbs the simulation identically on every run,
// which is what makes fault experiments comparable across code changes.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kind names one fault class.
type Kind string

// The supported fault kinds.
const (
	// FailDevice fails node N's SSD: cache allocations, writes and reads
	// return I/O errors until the fault clears.
	FailDevice Kind = "fail-device"
	// DeviceENOSPC makes node N's SSD report out-of-space on allocation.
	DeviceENOSPC Kind = "device-enospc"
	// FailTarget takes PFS data target I offline: RPCs time out with
	// ErrTargetDown until the fault clears.
	FailTarget Kind = "fail-target"
	// DegradeTarget scales PFS data target I's service rate by Factor.
	DegradeTarget Kind = "degrade-target"
	// DegradeLink scales node N's NIC bandwidth by Factor.
	DegradeLink Kind = "degrade-link"
	// CrashNode kills node N's cache layer mid-run (the paper's §III node
	// failure): open cache files stop syncing, in-flight requests complete
	// with ErrCrashed, and the cache file plus its journal survive on the
	// NVM device for a later e10_cache_recovery open. A crash never
	// reverts, so it only accepts at= times.
	CrashNode Kind = "crash-node"
	// LossyLink makes node N's outbound link drop each message with
	// probability Factor (seeded, per-message). Dropped messages charge the
	// sender's NIC but never arrive; the MPI reliable-delivery layer (when
	// enabled) retransmits them.
	LossyLink Kind = "lossy-link"
	// DupLink makes node N's outbound link duplicate each message with
	// probability Factor. The MPI reliable-delivery layer dedups the extra
	// copy at the receiver.
	DupLink Kind = "dup-link"
	// Partition cuts the fabric between Nodes and the remaining nodes:
	// messages crossing the cut are dropped at the sender until the window
	// ends (or forever with at=). Only one partition may be active at a
	// time.
	Partition Kind = "partition"
	// TornWrite models a crash mid-write on node N's NVM: the in-flight
	// journal append is torn, leaving only a prefix of the record
	// persisted. The checksummed commit-record format detects the tear at
	// scrub time and truncates replay to the last valid record. A tear is
	// a one-shot corruption, so it only accepts at= times.
	TornWrite Kind = "torn-write"
	// BitRot flips at-rest bytes in node N's cache files and journal
	// images: each written chunk rots with probability Factor (rate=,
	// seeded, deterministic). The checksum layer detects rotted extents at
	// scrub time; recovery quarantines them instead of replaying garbage.
	// Rot is a one-shot corruption, so it only accepts at= times.
	BitRot Kind = "bit-rot"
)

// Fault is one scheduled fault. From is when it is applied; To, when
// non-zero, is when it reverts (a from=/to= window). A zero To means the
// fault holds for the rest of the run (at=).
type Fault struct {
	Kind   Kind
	Node   int     // every kind but FailTarget, DegradeTarget and Partition
	Nodes  []int   // Partition: the node group cut from the rest
	Target int     // FailTarget, DegradeTarget
	Factor float64 // DegradeTarget, DegradeLink: speed factor in (0, 1]; LossyLink, DupLink, BitRot: probability in (0, 1)
	From   sim.Time
	To     sim.Time
}

// String renders the fault compactly, e.g. "degrade-target(t1,f=0.20)@2s-8s"
// or "partition(n0:2)@2s-8s".
func (f Fault) String() string {
	var loc string
	switch f.Kind {
	case FailTarget, DegradeTarget:
		loc = fmt.Sprintf("t%d", f.Target)
	case Partition:
		parts := make([]string, len(f.Nodes))
		for i, n := range f.Nodes {
			parts[i] = strconv.Itoa(n)
		}
		loc = "n" + strings.Join(parts, ":")
	default:
		loc = fmt.Sprintf("n%d", f.Node)
	}
	s := fmt.Sprintf("%s(%s", f.Kind, loc)
	if f.Kind == DegradeTarget || f.Kind == DegradeLink || f.Kind == LossyLink || f.Kind == DupLink {
		s += fmt.Sprintf(",f=%.2f", f.Factor)
	}
	if f.Kind == BitRot {
		s += fmt.Sprintf(",r=%.3g", f.Factor)
	}
	s += ")@" + f.From.String()
	if f.To > 0 {
		s += "-" + f.To.String()
	}
	return s
}

// Schedule is an ordered list of faults, written in code as a literal:
//
//	&fault.Schedule{Faults: []fault.Fault{
//		{Kind: fault.FailDevice, Node: 0, From: 5 * sim.Second},
//		{Kind: fault.DegradeTarget, Target: 1, Factor: 0.2, From: 2 * sim.Second, To: 8 * sim.Second},
//	}}
//
// or parsed from a textual spec (Parse). Validate holds the rules every
// fault must meet.
type Schedule struct {
	Faults []Fault
}

// Empty reports whether the schedule holds no faults.
func (s *Schedule) Empty() bool { return s == nil || len(s.Faults) == 0 }

// Parse builds a schedule from a textual spec: semicolon-separated clauses
// of comma-separated fields, e.g.
//
//	fail-device,node=0,at=5s
//	device-enospc,node=1,from=1s,to=3s
//	fail-target,target=2,from=2s,to=8s
//	degrade-target,target=1,factor=0.2,from=2s,to=8s
//	degrade-link,node=0,factor=0.5,at=500ms
//	lossy-link,node=0,factor=0.1,from=1s,to=4s
//	dup-link,node=1,factor=0.05,at=2s
//	partition,nodes=0:2,from=3s,to=6s
//	torn-write,node=0,at=5s
//	bit-rot,node=1,rate=0.1,at=5s
//
// Durations use Go syntax (time.ParseDuration). "at=" schedules a permanent
// fault; "from="/"to=" a reverting window, so from= needs a to=. "factor="
// belongs to the degrade, lossy and dup kinds, which need it; "rate=" (the
// per-chunk rot probability) to bit-rot, which needs it; "nodes=", a
// colon-separated node-id list, to partition. Parse checks only this
// grammar; the parsed schedule must then pass Validate.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		f, err := parseClause(clause)
		if err != nil {
			return nil, fmt.Errorf("fault: clause %q: %w", clause, err)
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, errors.New("fault: empty schedule")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseClause parses one clause of a Parse spec.
func parseClause(clause string) (Fault, error) {
	fields := strings.Split(clause, ",")
	f := Fault{Kind: Kind(strings.TrimSpace(fields[0])), Factor: 1}
	seen := map[string]bool{}
	for _, field := range fields[1:] {
		field = strings.TrimSpace(field)
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return f, fmt.Errorf("malformed field %q", field)
		}
		seen[key] = true
		var err error
		switch key {
		case "node":
			f.Node, err = strconv.Atoi(val)
		case "target":
			f.Target, err = strconv.Atoi(val)
		case "nodes":
			for _, part := range strings.Split(val, ":") {
				var n int
				if n, err = strconv.Atoi(part); err != nil {
					break
				}
				f.Nodes = append(f.Nodes, n)
			}
		case "factor", "rate":
			f.Factor, err = strconv.ParseFloat(val, 64)
		case "at", "from", "to":
			var d time.Duration
			d, err = time.ParseDuration(val)
			if key == "to" {
				f.To = sim.Time(d.Nanoseconds())
			} else {
				f.From = sim.Time(d.Nanoseconds())
			}
		default:
			return f, fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return f, fmt.Errorf("bad %s %q", key, val)
		}
	}
	takesFactor := f.Kind == DegradeTarget || f.Kind == DegradeLink || f.Kind == LossyLink || f.Kind == DupLink
	switch {
	case seen["at"] && (seen["from"] || f.To != 0):
		return f, errors.New("mixes at= with from=/to=")
	case seen["from"] && f.To == 0:
		return f, errors.New("from= needs a to= (at= schedules a permanent fault)")
	case takesFactor && !seen["factor"]:
		return f, fmt.Errorf("%s needs factor=", f.Kind)
	case !takesFactor && seen["factor"]:
		return f, errors.New("factor= is for degrade-target, degrade-link, lossy-link and dup-link only")
	case f.Kind == BitRot && !seen["rate"]:
		return f, errors.New("bit-rot needs rate=")
	case f.Kind != BitRot && seen["rate"]:
		return f, errors.New("rate= is bit-rot-only (use factor=)")
	case f.Kind != Partition && seen["nodes"]:
		return f, errors.New("nodes= is partition-only (use node=)")
	}
	return f, nil
}

// location identifies what a fault acts on, for overlap detection: faults of
// the same kind on the same location must not have overlapping windows. All
// partitions share one location (-1): the fabric supports a single cut at a
// time, so any two overlapping partitions conflict.
func (f Fault) location() int {
	switch f.Kind {
	case FailTarget, DegradeTarget:
		return f.Target
	case Partition:
		return -1
	}
	return f.Node
}

// Validate is the one place that states the rules a schedule's faults must
// meet, independent of any hardware; Parse checks only the spec grammar and
// Arm only the bounds of the hardware it arms against. Every fault needs a
// known kind, a non-negative start, node, target and group nodes, and a
// window (when present) that ends after it starts. Degrade factors lie in
// (0,1]; link loss/dup probabilities and bit-rot rates in (0,1). Crash-node,
// torn-write and bit-rot cannot revert. A partition needs a non-empty node
// group and a heal window. No two faults of the same kind on the same
// node/target may have overlapping active windows (a permanent fault,
// To == 0, is active forever). Errors name the offending action index so a
// generated schedule can be debugged from the message alone.
func (s *Schedule) Validate() error {
	for i, f := range s.Faults {
		if err := f.check(); err != nil {
			return fmt.Errorf("fault: action %d (%s): %w", i, f, err)
		}
	}
	for i := 0; i < len(s.Faults); i++ {
		for j := i + 1; j < len(s.Faults); j++ {
			a, b := s.Faults[i], s.Faults[j]
			if a.Kind != b.Kind || a.location() != b.location() {
				continue
			}
			// Active windows: [From, To), with To == 0 meaning forever.
			if (a.To == 0 || b.From < a.To) && (b.To == 0 || a.From < b.To) {
				return fmt.Errorf("fault: action %d (%s) overlaps action %d (%s)", i, a, j, b)
			}
		}
	}
	return nil
}

// check applies Validate's per-fault rules to f.
func (f Fault) check() error {
	switch {
	case f.From < 0:
		return fmt.Errorf("negative start time %v", f.From)
	case f.To < 0:
		return fmt.Errorf("negative end time %v", f.To)
	case f.To > 0 && f.To <= f.From:
		return errors.New("window ends at or before it starts")
	case f.Node < 0:
		return fmt.Errorf("negative node %d", f.Node)
	case f.Target < 0:
		return fmt.Errorf("negative target %d", f.Target)
	}
	for _, n := range f.Nodes {
		if n < 0 {
			return fmt.Errorf("negative node %d in group", n)
		}
	}
	// The range tests are written so that a NaN factor fails them too.
	switch f.Kind {
	case FailDevice, DeviceENOSPC, FailTarget:
	case DegradeTarget, DegradeLink:
		if !(f.Factor > 0 && f.Factor <= 1) {
			return fmt.Errorf("factor %v outside (0,1]", f.Factor)
		}
	case LossyLink, DupLink:
		if !(f.Factor > 0 && f.Factor < 1) {
			return fmt.Errorf("probability %v outside (0,1)", f.Factor)
		}
	case CrashNode, TornWrite, BitRot:
		if f.To > 0 {
			return fmt.Errorf("%s cannot revert (no to= window)", f.Kind)
		}
		if f.Kind == BitRot && !(f.Factor > 0 && f.Factor < 1) {
			return fmt.Errorf("rate %v outside (0,1)", f.Factor)
		}
	case Partition:
		if len(f.Nodes) == 0 {
			return errors.New("partition needs a non-empty node group")
		}
		if f.To == 0 {
			// A cut that never heals means partition-exempt retries spin
			// forever: the schedule guarantees a livelock, not a finding.
			return errors.New("partition needs a heal window (from=/to=, not at=)")
		}
	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	return nil
}

// Targets names the hardware a schedule is armed against. Any field may be
// nil/absent as long as no scheduled fault needs it.
type Targets struct {
	// Devices maps a node index to its SSD (nil when the node has none).
	Devices func(node int) *nvm.Device
	// PFS is the global parallel file system.
	PFS *pfs.System
	// Net is the cluster interconnect.
	Net *netsim.Fabric
	// Crash kills node's cache layer (CrashNode). Leave nil when the
	// deployment has no crashable cache; arming a crash-node fault then
	// fails at validate time instead of silently doing nothing.
	Crash func(node int)
	// TornWrite tears node's in-flight journal append (TornWrite). Like
	// Crash, leave nil when the deployment has no journalled cache.
	TornWrite func(node int)
	// BitRot flips at-rest bytes on node's NVM with per-chunk probability
	// rate (BitRot). Like Crash, leave nil when the deployment has no
	// corruptible cache state.
	BitRot func(node int, rate float64)
}

// Stat records one fault's lifecycle for the report.
type Stat struct {
	Fault     Fault
	AppliedAt sim.Time
	ClearedAt sim.Time // zero while active / for permanent faults
	Applied   bool
	Cleared   bool
}

// Injector is an armed schedule: it owns the timed callbacks and the
// per-fault stats.
type Injector struct {
	stats []Stat
}

// Arm validates the schedule against tg and registers kernel callbacks
// applying (and, for windows, reverting) every fault at its exact virtual
// time. Arm must run before k.Run so that no fault time lies in the past.
func Arm(k *sim.Kernel, s *Schedule, tg Targets) (*Injector, error) {
	if s.Empty() {
		return &Injector{}, nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{stats: make([]Stat, len(s.Faults))}
	for i, f := range s.Faults {
		if err := validate(f, tg); err != nil {
			return nil, fmt.Errorf("fault: action %d (%s): %w", i, f, err)
		}
		inj.stats[i].Fault = f
		i, f := i, f
		k.After(f.From, func() {
			apply(f, tg, true)
			inj.stats[i].Applied = true
			inj.stats[i].AppliedAt = k.Now()
			traceFault(k, f, true)
		})
		if f.To > 0 {
			k.After(f.To, func() {
				apply(f, tg, false)
				inj.stats[i].Cleared = true
				inj.stats[i].ClearedAt = k.Now()
				traceFault(k, f, false)
			})
		}
	}
	return inj, nil
}

// traceFault records a fault's apply/clear transitions on the shared
// "faults" trace timeline and in the per-kind fault counter (no-op without
// the respective observability layer attached).
func traceFault(k *sim.Kernel, f Fault, on bool) {
	name := string(f.Kind)
	if !on {
		name += ".clear"
	}
	if m := k.Metrics(); m != nil {
		m.Counter("fault_transitions_total", metrics.L(metrics.KeyOp, name)).Inc()
	}
	tr := k.Tracer()
	if tr == nil {
		return
	}
	loc := int64(f.Node)
	switch {
	case f.Kind == FailTarget || f.Kind == DegradeTarget:
		loc = int64(f.Target)
	case f.Kind == Partition && len(f.Nodes) > 0:
		loc = int64(f.Nodes[0])
	}
	tr.Instant(tr.Track(trace.GroupFaults, "faults"), "fault", name, int64(k.Now()),
		trace.I("loc", loc))
}

// validate checks that tg can host f, failing at arm time rather than
// mid-run: the upper bounds of f's node and target, and the hooks its kind
// needs. Validate has already checked f itself. Arm wraps any error with
// the offending action index.
func validate(f Fault, tg Targets) error {
	switch f.Kind {
	case FailDevice, DeviceENOSPC:
		if tg.Devices == nil || tg.Devices(f.Node) == nil {
			return fmt.Errorf("node %d has no device", f.Node)
		}
	case FailTarget, DegradeTarget:
		if tg.PFS == nil {
			return errors.New("no PFS")
		}
		if f.Target >= tg.PFS.Config().Targets {
			return fmt.Errorf("target %d out of range (%d targets)",
				f.Target, tg.PFS.Config().Targets)
		}
	case DegradeLink, LossyLink, DupLink:
		if tg.Net == nil {
			return errors.New("no fabric")
		}
		if f.Node >= tg.Net.Nodes() {
			return fmt.Errorf("node %d out of range (%d nodes)",
				f.Node, tg.Net.Nodes())
		}
	case Partition:
		if tg.Net == nil {
			return errors.New("no fabric")
		}
		for _, n := range f.Nodes {
			if n >= tg.Net.Nodes() {
				return fmt.Errorf("node %d out of range (%d nodes)",
					n, tg.Net.Nodes())
			}
		}
	case CrashNode:
		if tg.Crash == nil {
			return errors.New("no crash hook wired")
		}
	case TornWrite, BitRot:
		if tg.Devices == nil || tg.Devices(f.Node) == nil {
			return fmt.Errorf("node %d has no device", f.Node)
		}
		if f.Kind == TornWrite && tg.TornWrite == nil {
			return errors.New("no torn-write hook wired")
		}
		if f.Kind == BitRot && tg.BitRot == nil {
			return errors.New("no bit-rot hook wired")
		}
	}
	return nil
}

// apply toggles one fault on (on=true) or back off.
func apply(f Fault, tg Targets, on bool) {
	switch f.Kind {
	case FailDevice:
		tg.Devices(f.Node).SetFailed(on)
	case DeviceENOSPC:
		tg.Devices(f.Node).SetNoSpace(on)
	case FailTarget:
		tg.PFS.SetTargetDown(f.Target, on)
	case DegradeTarget:
		factor := f.Factor
		if !on {
			factor = 1
		}
		tg.PFS.SetTargetSpeed(f.Target, factor)
	case DegradeLink:
		factor := f.Factor
		if !on {
			factor = 1
		}
		tg.Net.Node(f.Node).SetDegraded(factor)
	case CrashNode:
		if on { // a crash never reverts
			tg.Crash(f.Node)
		}
	case TornWrite:
		if on { // a tear never reverts
			tg.TornWrite(f.Node)
		}
	case BitRot:
		if on { // rot never reverts
			tg.BitRot(f.Node, f.Factor)
		}
	case LossyLink:
		p := f.Factor
		if !on {
			p = 0
		}
		tg.Net.Node(f.Node).SetLossy(p)
	case DupLink:
		p := f.Factor
		if !on {
			p = 0
		}
		tg.Net.Node(f.Node).SetDup(p)
	case Partition:
		tg.Net.SetPartition(f.Nodes, on)
	}
}

// Report renders the fault lifecycle deterministically (schedule order,
// fixed formatting) so two seeded runs produce byte-identical output.
func (inj *Injector) Report() string {
	if len(inj.stats) == 0 {
		return ""
	}
	stats := make([]Stat, len(inj.stats))
	copy(stats, inj.stats)
	sort.SliceStable(stats, func(i, j int) bool {
		return stats[i].Fault.From < stats[j].Fault.From
	})
	var b strings.Builder
	b.WriteString("fault schedule:\n")
	for _, st := range stats {
		state := "pending"
		switch {
		case st.Cleared:
			state = fmt.Sprintf("cleared@%s", st.ClearedAt)
		case st.Applied:
			state = fmt.Sprintf("active since %s", st.AppliedAt)
		}
		fmt.Fprintf(&b, "  %-40s %s\n", st.Fault, state)
	}
	return b.String()
}
