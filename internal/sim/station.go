package sim

import "repro/internal/trace"

// Station is a FIFO queueing station with a fixed number of identical
// servers. It models contended resources such as storage targets, NIC
// injection ports and metadata servers: requests queue in arrival order and
// each occupies one server for its service time.
type Station struct {
	k       *Kernel
	kind    string // what the station models, which names its service spans
	name    string // this station, which names its trace track
	servers int
	busy    int
	waiters procQueue

	// Statistics, accumulated over the run.
	BusyTime  Time  // total server-occupancy time (sum over servers)
	Served    int64 // completed service requests
	Bytes     int64 // payload bytes accounted via ServeBytes
	QueuedMax int   // high-water mark of the wait queue

	ttk  trace.TrackID
	treg bool
}

// NewStation creates a station with the given number of parallel servers.
// kind says what it models ("node.tx", "pfs.tgt") and names the spans of
// its services in a trace; name tells this station from the others of its
// kind ("node3.tx", "pfs.tgt1") and names its trace track. So a trace has
// one service name per kind, however many nodes the machine has.
func NewStation(k *Kernel, kind, name string, servers int) *Station {
	if servers < 1 {
		panic("sim: station needs at least one server")
	}
	return &Station{k: k, kind: kind, name: name, servers: servers}
}

// TraceTrack lazily registers and returns this station's trace timeline
// (first use wins the registration, which is deterministic in a seeded
// run). Layers above can use it to attach events to the device's track.
func (s *Station) TraceTrack(tr *trace.Tracer) trace.TrackID {
	if tr == nil {
		return trace.NoTrack
	}
	if !s.treg {
		s.ttk = tr.Track(trace.GroupStations, s.name)
		s.treg = true
	}
	return s.ttk
}

// ServeThen occupies one server for duration d on p's behalf, queueing FIFO
// behind earlier requests, and resumes p when the service ends. The kernel
// starts and ends the service, so p does not run in between: a step
// process calls ServeThen as its resume, and Serve is ServeThen followed by
// a block.
func (s *Station) ServeThen(p *Proc, d Time) {
	if d < 0 {
		panic("sim: negative service time")
	}
	p.armed = true
	p.svc, p.svcD = s, d
	if s.busy < s.servers {
		s.busy++
		p.serving = true
		s.k.schedule(event{t: s.k.now + d, p: p})
		return
	}
	s.waiters.push(p)
	if s.waiters.len() > s.QueuedMax {
		s.QueuedMax = s.waiters.len()
	}
	if tr := s.k.tracer; tr != nil {
		tr.Counter(s.TraceTrack(tr), "queue", int64(s.k.now), int64(s.waiters.len()))
	}
	// release hands the server on with a wake; the kernel then times the
	// service from that instant.
}

// Serve occupies one server for duration d.
func (s *Station) Serve(p *Proc, d Time) {
	p.mustBlock()
	s.ServeThen(p, d)
	p.block()
}

// finish ends a service of duration d, which the kernel does just before it
// resumes the served process.
func (s *Station) finish(d Time) {
	if tr := s.k.tracer; tr != nil {
		tr.SpanAt(s.TraceTrack(tr), "station", s.kind, int64(s.k.now-d), int64(s.k.now))
	}
	s.BusyTime += d
	s.Served++
	s.release()
}

// release frees one server, handing it to the head waiter if present.
func (s *Station) release() {
	if s.waiters.len() > 0 {
		p := s.waiters.pop()
		if tr := s.k.tracer; tr != nil {
			tr.Counter(s.TraceTrack(tr), "queue", int64(s.k.now), int64(s.waiters.len()))
		}
		s.k.Wake(p)
		return
	}
	s.busy--
}

// ServeBytes occupies one server for latency plus the transfer time of n
// bytes at the given rate, and accounts the bytes in the statistics.
func (s *Station) ServeBytes(p *Proc, latency Time, rate Rate, n int64) {
	d := latency + rate.DurationFor(n)
	s.Serve(p, d)
	s.Bytes += n
}

// Utilization returns the mean fraction of server capacity in use up to the
// given time horizon.
func (s *Station) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.BusyTime) / (float64(horizon) * float64(s.servers))
}
