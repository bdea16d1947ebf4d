package main

import "time"

// span is one host-time interval the benchmark spent in a call into a
// layer. Spans of one rep share its rep number; parent is the enclosing
// span's id (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Rep      int    `json:"rep"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps the spans of one process in memory; they are written out
// when the benchmark ends. Calls nest: a span begun while another is open
// is its child. A rep runs on one goroutine, so no locking is needed.
type spanLog struct {
	workload string
	origin   time.Time
	rep      int
	spans    []span
	open     []int // ids of open spans, innermost last
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its id.
func (l *spanLog) begin(name string) int {
	s := span{ID: len(l.spans) + 1, Rep: l.rep, Workload: l.workload, Name: name,
		StartNs: time.Since(l.origin).Nanoseconds()}
	if n := len(l.open); n > 0 {
		s.Parent = l.open[n-1]
	}
	l.spans = append(l.spans, s)
	l.open = append(l.open, s.ID)
	return s.ID
}

// end closes span id, and any span left open inside it, and returns its
// duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.origin).Nanoseconds()
	for n := len(l.open); n > 0; n-- {
		top := l.open[n-1]
		l.open = l.open[:n-1]
		l.spans[top-1].EndNs = now
		if top == id {
			break
		}
	}
	return time.Duration(now - l.spans[id-1].StartNs)
}

// timed runs f inside a span and returns its duration.
func (l *spanLog) timed(name string, f func()) time.Duration {
	id := l.begin(name)
	f()
	return l.end(id)
}
