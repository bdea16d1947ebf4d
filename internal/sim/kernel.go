//go:build go1.23

package sim

import (
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// event is a scheduled occurrence: either a process resume (the first one
// starts the process) or a kernel callback (After and timers).
type event struct {
	t   Time
	seq uint64 // tie-break: FIFO among same-time events
	p   *Proc  // process to resume, or nil
	fn  func() // kernel callback, run inline (must not block)
	tm  *Timer // cancellable-timer handle, or nil
}

// ErrEventBudget is wrapped by the error Run returns when the liveness
// watchdog armed via SetEventBudget trips: the simulation dispatched more
// events than the budget allows, which in a finite workload means a
// livelock (an unbounded retry loop, a ping-pong wake cycle, ...).
var ErrEventBudget = errors.New("sim: event budget exhausted")

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// create kernels with NewKernel.
type Kernel struct {
	now        Time
	seq        uint64
	queue      eventQueue
	rng        *rand.Rand
	nextID     int
	budget     int64 // max events Run may dispatch; 0 = unlimited
	dispatched int64

	live     map[int]*Proc // all spawned, unfinished processes
	cur      *Proc         // process the driver resumes next; nil stops the run
	idle     []*worker     // workers of finished processes, reused LIFO
	stopped  chan struct{} // driver -> Run: "the run has stopped"
	running  bool
	panicked interface{} // process or callback panic for Run to re-raise

	tracer *trace.Tracer
	ktrack trace.TrackID

	metrics *metrics.Registry
	mEvents *metrics.Counter // kernel events dispatched
	mSpawns *metrics.Counter // processes spawned
	mWakes  *metrics.Counter // explicit wake-ups delivered
}

// NewKernel creates a kernel whose random number stream is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		live:    make(map[int]*Proc),
		stopped: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetTracer attaches an event tracer. Tracing is off (nil) by default; when
// attached, every layer built on this kernel reaches the tracer via Tracer()
// so instrumentation needs no extra plumbing. Attaching a tracer records
// events only — it never schedules work or consumes randomness, so it cannot
// perturb virtual time.
func (k *Kernel) SetTracer(t *trace.Tracer) {
	k.tracer = t
	k.ktrack = t.Track(trace.GroupKernel, "kernel")
}

// Tracer returns the attached tracer, or nil when tracing is disabled.
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// SetMetrics attaches a metrics registry. Metrics are off (nil) by default;
// when attached, every layer built on this kernel reaches the registry via
// Metrics() so instrumentation needs no extra plumbing. Like the tracer,
// the registry records values only — it never schedules work or consumes
// randomness, so it cannot perturb virtual time.
func (k *Kernel) SetMetrics(m *metrics.Registry) {
	k.metrics = m
	k.mEvents = m.Counter("sim_events_total", metrics.L(metrics.KeyLayer, "sim"))
	k.mSpawns = m.Counter("sim_procs_spawned_total", metrics.L(metrics.KeyLayer, "sim"))
	k.mWakes = m.Counter("sim_wakes_total", metrics.L(metrics.KeyLayer, "sim"))
}

// Metrics returns the attached registry, or nil when metrics are disabled.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// SetEventBudget arms the liveness watchdog: Run aborts with an error
// wrapping ErrEventBudget once more than n events have been dispatched
// over the kernel's lifetime. A finite simulated workload dispatches a
// bounded number of events, so exceeding a generous budget is evidence of
// a livelock rather than a long run. n <= 0 disables the watchdog (the
// default). The abort leaves still-parked processes behind; the kernel is
// not reusable afterwards.
func (k *Kernel) SetEventBudget(n int64) { k.budget = n }

// EventsDispatched returns how many events Run has dispatched so far.
func (k *Kernel) EventsDispatched() int64 { return k.dispatched }

// Rand returns the kernel's deterministic random number generator. It must
// only be used from simulation processes or kernel callbacks (the simulation
// is single-threaded, so no locking is required).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// schedule inserts an event into the queue.
func (k *Kernel) schedule(ev event) {
	if ev.t < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past: %v < %v", ev.t, k.now))
	}
	ev.seq = k.seq
	k.seq++
	k.queue.Push(ev, k.now)
}

// After runs fn at time Now()+d in kernel context. fn must not block; it may
// spawn processes or wake parked ones.
func (k *Kernel) After(d Time, fn func()) {
	k.schedule(event{t: k.now + d, fn: fn})
}

// Timer is a cancellable kernel callback armed via AfterTimer. A timer that
// is stopped before its due time is discarded by the run loop *before* it
// can advance virtual time, count against the event budget, or bump the
// event metric — so arming-then-cancelling timers (e.g. retransmit timers
// on an ack'd message) is completely invisible to the golden trace and to
// every determinism oracle.
type Timer struct {
	stopped bool
	fired   bool
}

// Stop cancels the timer. It reports whether the cancellation landed before
// the callback fired; stopping an already-fired (or already-stopped) timer
// is a harmless no-op returning false (respectively true).
func (t *Timer) Stop() bool {
	if t.fired {
		return false
	}
	t.stopped = true
	return true
}

// Fired reports whether the timer's callback has run.
func (t *Timer) Fired() bool { return t.fired }

// AfterTimer schedules fn like After but returns a handle that can cancel
// the callback before it fires. fn must not block.
func (k *Kernel) AfterTimer(d Time, fn func()) *Timer {
	tm := &Timer{}
	k.schedule(event{t: k.now + d, tm: tm, fn: func() {
		tm.fired = true
		fn()
	}})
	return tm
}

// Spawn creates a new simulation process that begins executing fn at the
// current virtual time (or, when called before Run, at time zero).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, nil, fn)
}

// SpawnLazy is Spawn for hot paths that create many short-lived processes
// (one per simulated message): the name is computed only when actually
// observed — a deadlock report, a panic, an explicit Name() call — so the
// fast path never pays for formatting it.
func (k *Kernel) SpawnLazy(nameFn func() string, fn func(p *Proc)) *Proc {
	return k.spawn("", nameFn, fn)
}

func (k *Kernel) spawn(name string, nameFn func() string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: spawn with a nil process body")
	}
	p := &Proc{
		k:      k,
		name:   name,
		nameFn: nameFn,
		id:     k.nextID,
		fn:     fn,
		ttk:    trace.NoTrack,
	}
	k.nextID++
	k.live[p.id] = p
	k.mSpawns.Inc()
	k.tracer.Counter(k.ktrack, "live_procs", int64(k.now), int64(len(k.live)))
	k.schedule(event{t: k.now, p: p}) // the first resume starts it
	return p
}

// next dispatches events until one resumes a live process and returns that
// process. Cancelled timers are dropped before they touch the clock, and
// callbacks and stale wakes for finished processes are consumed inline.
// next returns nil when the queue drains, when the event budget trips, or
// when a callback panics (the value is kept for Run to re-raise). It runs on
// Run's goroutine to start a run, and otherwise on the worker of the process
// that blocks or finishes.
func (k *Kernel) next() *Proc {
	for k.queue.Len() > 0 {
		if k.budget > 0 && k.dispatched >= k.budget {
			return nil
		}
		ev := k.queue.Pop()
		if ev.tm != nil && ev.tm.stopped {
			continue // cancelled timer: dropped before it can touch k.now
		}
		k.now = ev.t
		k.dispatched++
		k.mEvents.Inc()
		if ev.fn != nil {
			if !k.call(ev.fn) {
				return nil
			}
			continue
		}
		if !ev.p.done { // else a stale wake for a finished process
			return ev.p
		}
	}
	return nil
}

// call runs a kernel callback, recording a panic for Run to re-raise with
// its original value rather than letting it unwind the process worker the
// callback happens to run on.
func (k *Kernel) call(fn func()) (ok bool) {
	defer func() {
		if !ok {
			k.panicked = recover()
		}
	}()
	fn()
	return true
}

// worker is a coroutine that runs process bodies, one at a time. A process
// gets a worker at its first resume and keeps it until its body ends; the
// worker then goes back on the kernel's idle list for the next process to
// start. A body that panics still returns its worker there; one that calls
// runtime.Goexit ends the worker, so it never gets there.
type worker struct {
	p      *Proc                   // process whose body the worker runs
	resume func() (struct{}, bool) // driver -> worker
	yield  func(struct{}) bool     // worker -> driver
	stop   func()                  // ends an idle worker
}

// attach gives p, which has not started, the most recently idled worker, or
// a new one when none is idle.
func (k *Kernel) attach(p *Proc) {
	var w *worker
	if n := len(k.idle); n > 0 {
		w = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		w = k.newWorker()
	}
	w.p, p.w = p, w
}

// newWorker creates a worker. Its coroutine starts at the driver's first
// resume, with w.p already set.
func (k *Kernel) newWorker() *worker {
	w := &worker{}
	w.resume, w.stop = iter.Pull(func(yield func(struct{}) bool) {
		w.yield = yield
		for {
			w.p.run()
			w.p = nil
			k.idle = append(k.idle, w)
			if !yield(struct{}{}) {
				return // Run stopped the idle worker
			}
		}
	})
	return w
}

// run executes p's body on its worker.
func (p *Proc) run() {
	fn := p.fn
	p.fn = nil // a finished Proc may stay reachable; its closure need not
	// exit runs however fn ends: return, panic or runtime.Goexit.
	defer p.exit()
	fn(p)
}

// exit retires a finishing process and dispatches the next event from its
// worker. A process panic stops the run: control goes straight back to Run,
// which re-raises it.
func (p *Proc) exit() {
	k := p.k
	r := recover()
	p.done = true
	p.w = nil
	delete(k.live, p.id)
	k.tracer.Counter(k.ktrack, "live_procs", int64(k.now), int64(len(k.live)))
	if r != nil {
		k.panicked = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
		k.cur = nil
		return
	}
	k.cur = k.next()
}

// drive resumes k.cur until the run stops, then tells Run. A body that calls
// runtime.Goexit ends its worker, and iter.Pull passes the Goexit on to the
// goroutine that resumed the worker: this one. The deferred handler then
// carries the run on from a fresh driver.
func (k *Kernel) drive() {
	defer func() {
		if k.cur != nil {
			go k.drive()
			return
		}
		k.stopped <- struct{}{}
	}()
	for p := k.cur; p != nil; p = k.cur {
		if p.w == nil {
			k.attach(p)
		}
		if _, ok := p.w.resume(); !ok {
			panic(fmt.Sprintf("sim: process %q resumed on an ended worker", p.Name()))
		}
	}
}

// Run executes events until the queue drains. It returns an error if, when
// the queue is empty, some processes are still parked (a deadlock in the
// simulated system), identifying the stuck processes. The driver runs on a
// goroutine of its own, so a process's runtime.Goexit never reaches Run's
// caller; Run waits for it to stop, then ends the idle workers. Parked
// processes keep theirs, so a later Run can resume them.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() { k.running = false }()
	if k.cur = k.next(); k.cur != nil {
		go k.drive()
		<-k.stopped
	}
	for _, w := range k.idle {
		w.stop()
	}
	k.idle = nil
	if v := k.panicked; v != nil {
		k.panicked = nil
		panic(v)
	}
	if k.queue.Len() > 0 { // next stops early only for the budget
		return fmt.Errorf("%w: %d events dispatched at t=%v (livelock?)",
			ErrEventBudget, k.dispatched, k.now)
	}
	if len(k.live) > 0 {
		names := make([]string, 0, len(k.live))
		for _, p := range k.live {
			names = append(names, p.Name())
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock at t=%v: %d process(es) still blocked: %v", k.now, len(names), names)
	}
	return nil
}

// Proc is a simulation process: a body that the kernel runs on a worker
// coroutine and schedules in virtual time. All Proc methods must be called
// from the process's own body.
type Proc struct {
	k      *Kernel
	name   string
	nameFn func() string // lazy name, resolved on first Name() call
	id     int
	fn     func(p *Proc) // body until the first resume starts it; nil = started
	w      *worker       // worker running the body; nil before start and after exit
	done   bool
	ttk    trace.TrackID
}

// Name returns the process name given at Spawn, resolving a SpawnLazy
// name on first use.
func (p *Proc) Name() string {
	if p.name == "" && p.nameFn != nil {
		p.name = p.nameFn()
		p.nameFn = nil
	}
	return p.name
}

// ID returns the process's unique id within its kernel.
func (p *Proc) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// SetTraceTrack assigns the trace timeline that this process's blocked
// intervals are recorded on. Processes without a track (the default) record
// nothing.
func (p *Proc) SetTraceTrack(tk trace.TrackID) { p.ttk = tk }

// TraceTrack returns the process's trace timeline, or trace.NoTrack.
func (p *Proc) TraceTrack() trace.TrackID { return p.ttk }

// block gives up control until the process is resumed. The blocking
// process dispatches the next event itself: when that resumes this same
// process, block returns without any switch; otherwise it names the next
// process (nil when the run stops) and yields to the driver, which resumes
// that process's worker. When the process carries a trace track, the
// blocked interval is recorded as a span (zero-length blocks — pure
// scheduling yields — are skipped).
func (p *Proc) block() {
	k := p.k
	start := k.now
	if q := k.next(); q != p {
		k.cur = q
		p.w.yield(struct{}{})
	}
	if tr := k.tracer; tr != nil && p.ttk >= 0 && k.now > start {
		tr.SpanAt(p.ttk, "sim", "blocked", int64(start), int64(k.now))
	}
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		// Still yield, so that same-time events scheduled earlier run first.
		p.k.schedule(event{t: p.k.now, p: p})
		p.block()
		return
	}
	p.k.schedule(event{t: p.k.now + d, p: p})
	p.block()
}

// Park blocks the process until another process (or a kernel callback) wakes
// it via Kernel.Wake. Each Park must be matched by exactly one Wake.
func (p *Proc) Park() {
	p.block()
}

// Wake schedules p to resume at the current virtual time. It must only be
// called for a process that is currently parked (or about to park at the
// same instant: wake events for same-time parks are delivered in order).
func (k *Kernel) Wake(p *Proc) {
	k.mWakes.Inc()
	k.schedule(event{t: k.now, p: p})
}

// WakeAt schedules p to resume at time t >= Now().
func (k *Kernel) WakeAt(t Time, p *Proc) {
	k.schedule(event{t: t, p: p})
}
