// Package trace is a deterministic, zero-allocation-biased event tracer
// for the simulated cluster: spans (durations), instant events, counters
// with high-water marks, and async spans (message lifetimes), all stamped
// with virtual time.
//
// The package deliberately does not import internal/sim: time is carried as
// raw int64 nanoseconds (the representation of sim.Time), which lets the
// simulation kernel itself own a *Tracer and every layer above it reach the
// tracer through its kernel without import cycles or constructor plumbing.
//
// Determinism is the point: the simulation is single-threaded and seeded,
// so events are appended in a reproducible order, tracks and counters are
// registered in first-use order, and both exporters (Chrome trace-event
// JSON and the plain-text summary) are written with integer arithmetic and
// explicit ordering only. Two runs with the same seed produce byte-identical
// output, which turns a checked-in trace into a regression oracle.
//
// All methods are nil-receiver safe: a nil *Tracer is the disabled tracer,
// and the disabled cost of an instrumentation site is one pointer test.
package trace

import "fmt"

// TrackID identifies one registered timeline (a Chrome "thread").
type TrackID int32

// NoTrack is the TrackID returned by a disabled tracer; events recorded
// against it are dropped.
const NoTrack TrackID = -1

// Track groups: the Chrome "process" a track belongs to. Groups keep the
// hundreds of per-rank, per-device and per-station timelines organised in
// the Perfetto UI.
const (
	GroupRanks    = 0 // one track per MPI rank
	GroupSync     = 1 // cache sync threads
	GroupStations = 2 // queueing stations: NICs, PFS targets, SSDs, caps
	GroupKernel   = 3 // simulation-kernel bookkeeping
	GroupFaults   = 4 // fault-injection lifecycle
)

// GroupName returns the display name of a track group.
func GroupName(g int) string {
	switch g {
	case GroupRanks:
		return "ranks"
	case GroupSync:
		return "sync-threads"
	case GroupStations:
		return "stations"
	case GroupKernel:
		return "kernel"
	case GroupFaults:
		return "faults"
	}
	return fmt.Sprintf("group%d", g)
}

// Kind distinguishes the event flavours.
type Kind uint8

// Event kinds.
const (
	KindSpan Kind = iota
	KindInstant
	KindCounter
	KindAsyncBegin
	KindAsyncEnd
)

// Arg is one integer key/value annotation on an event.
type Arg struct {
	Key string
	Val int64
}

// I builds an Arg; it keeps call sites compact.
func I(key string, val int64) Arg { return Arg{Key: key, Val: val} }

// Event is one recorded occurrence. Start and Dur are virtual nanoseconds.
type Event struct {
	Kind  Kind
	Track TrackID
	Cat   string
	Name  string
	Start int64
	Dur   int64  // spans only
	Value int64  // counters only
	ID    uint64 // async spans only
	Args  [2]Arg
	NArgs uint8
}

// track is one registered timeline.
type track struct {
	group int
	tid   int // id within the group
	name  string
}

type trackKey struct {
	group int
	name  string
}

// counterStat tracks one counter series' latest value and high-water mark.
type counterStat struct {
	track   TrackID
	name    string
	first   int64 // virtual time of the first sample
	last    int64
	max     int64
	samples int64
}

type counterKey struct {
	track TrackID
	name  string
}

// Tracer accumulates events. The zero value is not usable; create tracers
// with New. A nil *Tracer is the disabled tracer.
type Tracer struct {
	events     []Event
	tracks     []track
	trackIdx   map[trackKey]TrackID
	groupSizes map[int]int
	counters   []counterStat
	counterIdx map[counterKey]int
	asyncSeq   uint64
}

// New creates an empty tracer.
func New() *Tracer {
	return &Tracer{
		trackIdx:   make(map[trackKey]TrackID),
		groupSizes: make(map[int]int),
		counterIdx: make(map[counterKey]int),
	}
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in append order (shared slice; callers
// must not mutate).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Track registers (or looks up) the timeline named name in the given group
// and returns its id. Registration order is first-use order, which is
// deterministic in a seeded simulation; callers should cache the result.
func (t *Tracer) Track(group int, name string) TrackID {
	if t == nil {
		return NoTrack
	}
	key := trackKey{group: group, name: name}
	if id, ok := t.trackIdx[key]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, track{group: group, tid: t.groupSizes[group], name: name})
	t.groupSizes[group]++
	t.trackIdx[key] = id
	return id
}

// TrackGroup returns the group a track belongs to, or -1 when the id is
// out of range (or the tracer is disabled).
func (t *Tracer) TrackGroup(id TrackID) int {
	if t == nil || id < 0 || int(id) >= len(t.tracks) {
		return -1
	}
	return t.tracks[id].group
}

// TrackName returns the display name of a track.
func (t *Tracer) TrackName(id TrackID) string {
	if t == nil || id < 0 || int(id) >= len(t.tracks) {
		return ""
	}
	return t.tracks[id].name
}

// Tracks returns the number of registered tracks.
func (t *Tracer) Tracks() int {
	if t == nil {
		return 0
	}
	return len(t.tracks)
}

// setArgs copies up to two args into ev.
func setArgs(ev *Event, args []Arg) {
	for i, a := range args {
		if i >= len(ev.Args) {
			break
		}
		ev.Args[i] = a
		ev.NArgs++
	}
}

// Span is an open interval handle: s := tr.Begin(...); ...; s.End(now).
// The zero Span (from a disabled tracer) is safe to End.
type Span struct {
	t     *Tracer
	track TrackID
	cat   string
	name  string
	start int64
}

// Begin opens a span on a track at virtual time now.
func (t *Tracer) Begin(tk TrackID, cat, name string, now int64) Span {
	if t == nil || tk < 0 {
		return Span{}
	}
	return Span{t: t, track: tk, cat: cat, name: name, start: now}
}

// End closes the span at virtual time now, recording a complete event.
func (s Span) End(now int64, args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.SpanAt(s.track, s.cat, s.name, s.start, now, args...)
}

// SpanAt records a complete span over [start, end].
func (t *Tracer) SpanAt(tk TrackID, cat, name string, start, end int64, args ...Arg) {
	if t == nil || tk < 0 {
		return
	}
	t.add(KindSpan, tk, cat, name, start, max(end-start, 0), 0, args)
}

// Instant records a point event at virtual time now.
func (t *Tracer) Instant(tk TrackID, cat, name string, now int64, args ...Arg) {
	if t == nil || tk < 0 {
		return
	}
	t.add(KindInstant, tk, cat, name, now, 0, 0, args)
}

// add appends one event. The recorders that call it keep only their nil
// check inline, so an Event never takes room in a caller's frame: a
// simulated rank's stack stays small.
//
//go:noinline
func (t *Tracer) add(kind Kind, tk TrackID, cat, name string, start, dur int64, id uint64, args []Arg) {
	ev := Event{Kind: kind, Track: tk, Cat: cat, Name: name, Start: start, Dur: dur, ID: id}
	setArgs(&ev, args)
	t.events = append(t.events, ev)
}

// Counter records the new value of the named counter series on a track and
// updates its high-water mark.
func (t *Tracer) Counter(tk TrackID, name string, now, val int64) {
	if t == nil || tk < 0 {
		return
	}
	key := counterKey{track: tk, name: name}
	i, ok := t.counterIdx[key]
	if !ok {
		i = len(t.counters)
		t.counters = append(t.counters, counterStat{track: tk, name: name, first: now})
		t.counterIdx[key] = i
	}
	st := &t.counters[i]
	st.last = val
	st.samples++
	if val > st.max {
		st.max = val
	}
	t.events = append(t.events, Event{Kind: KindCounter, Track: tk, Name: name, Start: now, Value: val})
}

// AsyncBegin opens an async span (an operation whose begin and end may lie
// on different tracks, such as a message in flight) and returns its id.
func (t *Tracer) AsyncBegin(tk TrackID, cat, name string, now int64, args ...Arg) uint64 {
	if t == nil || tk < 0 {
		return 0
	}
	t.asyncSeq++
	t.add(KindAsyncBegin, tk, cat, name, now, 0, t.asyncSeq, args)
	return t.asyncSeq
}

// AsyncEnd closes the async span with the given id.
func (t *Tracer) AsyncEnd(tk TrackID, cat, name string, id uint64, now int64) {
	if t == nil || tk < 0 || id == 0 {
		return
	}
	t.add(KindAsyncEnd, tk, cat, name, now, 0, id, nil)
}
