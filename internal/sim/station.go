package sim

import "repro/internal/trace"

// Station is a FIFO queueing station with a fixed number of identical
// servers. It models contended resources such as storage targets, NIC
// injection ports and metadata servers: requests queue in arrival order and
// each occupies one server for its service time.
type Station struct {
	k       *Kernel
	name    string
	servers int
	busy    int
	waiters []*Proc

	// Statistics, accumulated over the run.
	BusyTime  Time  // total server-occupancy time (sum over servers)
	Served    int64 // completed service requests
	Bytes     int64 // payload bytes accounted via ServeBytes
	QueuedMax int   // high-water mark of the wait queue

	ttk  trace.TrackID
	treg bool
}

// NewStation creates a station with the given number of parallel servers.
func NewStation(k *Kernel, name string, servers int) *Station {
	if servers < 1 {
		panic("sim: station needs at least one server")
	}
	return &Station{k: k, name: name, servers: servers}
}

// Name returns the station name.
func (s *Station) Name() string { return s.name }

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

// Acquire obtains one server, queueing FIFO behind earlier requests.
func (s *Station) Acquire(p *Proc) {
	if s.busy < s.servers {
		s.busy++
		return
	}
	s.waiters = append(s.waiters, p)
	if len(s.waiters) > s.QueuedMax {
		s.QueuedMax = len(s.waiters)
	}
	if tr := s.k.tracer; tr != nil {
		tr.Counter(s.TraceTrack(tr), "queue", int64(s.k.now), int64(len(s.waiters)))
	}
	p.Park()
	// The releaser transferred the server to us: busy stays constant.
}

// Release frees one server, handing it to the head waiter if present.
func (s *Station) Release() {
	if len(s.waiters) > 0 {
		p := s.waiters[0]
		s.waiters[0] = nil // the backing array must not keep p reachable
		s.waiters = s.waiters[1:]
		if tr := s.k.tracer; tr != nil {
			tr.Counter(s.TraceTrack(tr), "queue", int64(s.k.now), int64(len(s.waiters)))
		}
		s.k.Wake(p)
		return
	}
	s.busy--
	if s.busy < 0 {
		panic("sim: station released more than acquired")
	}
}

// Serve occupies one server for duration d.
func (s *Station) Serve(p *Proc, d Time) {
	s.Acquire(p)
	if tr := s.k.tracer; tr != nil {
		start := s.k.now
		p.Sleep(d)
		tr.SpanAt(s.TraceTrack(tr), "station", s.name, int64(start), int64(s.k.now))
	} else {
		p.Sleep(d)
	}
	s.BusyTime += d
	s.Served++
	s.Release()
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
