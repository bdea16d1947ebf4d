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
	tm  *Timer // cancellable timer whose callback runs, or nil
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

	live     liveSet       // all spawned, unfinished processes
	idle     []*worker     // workers of finished processes, reused LIFO
	workers  int64         // workers started over the kernel's lifetime
	stopped  chan struct{} // driver -> Run: "the run has stopped"
	running  bool
	panicked interface{} // process or callback panic for Run to re-raise

	tracer *trace.Tracer
	ktrack trace.TrackID

	probe func() // called at every worker block point, or nil

	metrics *metrics.Registry
	mEvents *metrics.Counter // kernel events dispatched
	mSpawns *metrics.Counter // processes spawned
	mWakes  *metrics.Counter // explicit wake-ups delivered
}

// NewKernel creates a kernel whose random number stream is seeded with seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
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

// SetBlockProbe attaches fn, which a worker process then calls on its own
// stack each time it blocks, before it gives up control: the point where
// its stack is deepest. It is off (nil) by default. Like the tracer, a
// probe must only observe: it must schedule no events and draw no
// randomness, so it cannot perturb virtual time.
func (k *Kernel) SetBlockProbe(fn func()) { k.probe = fn }

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
	fn      func() // the callback, until it fires
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

// AfterTimer schedules fn like After but returns a handle that can cancel
// the callback before it fires. fn must not block. It stays out of line:
// inlined, its event would take room in the frame of a rank that arms a
// deadline and then blocks.
//
//go:noinline
func (k *Kernel) AfterTimer(d Time, fn func()) *Timer {
	tm := &Timer{fn: fn}
	k.schedule(event{t: k.now + d, tm: tm})
	return tm
}

// Spawn creates a new simulation process that begins executing fn at the
// current virtual time (or, when called before Run, at time zero).
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if fn == nil {
		panic("sim: spawn with a nil process body")
	}
	p := &Proc{name: name, fn: fn}
	k.start(p)
	return p
}

// Stepper is the body of a step process: Step runs at each of its resumes,
// and Name names the process the first time the name is observed — a
// deadlock report, a panic, an explicit Proc.Name call — so the fast path
// never pays for formatting it.
type Stepper interface {
	Step(p *Proc)
	Name() string
}

// SpawnStep starts a step process, a process that never gets a worker, in
// storage p that the caller owns; a caller with none passes new(Proc).
// s.Step runs inline in the kernel at the process's first resume (the
// current virtual time) and at every resume after it. Each run either
// arranges the next resume, with Then, ParkThen or Station.ServeThen, or
// returns without one, which ends the process.
//
// A step must not block: Sleep, Park and Serve panic on a step process.
// Step processes suit the many waiting-mostly processes (one per
// simulated message, PFS stream or cache sync thread) whose worker stacks
// would dominate memory; a blocking call has a step form for them, and
// the blocking form is that step form followed by Park.
//
// SpawnStep overwrites *p. A stale event may still name a finished
// process, so p may be embedded only in a record that is never reused
// while an event can still name it: the record of one message, say, but
// not an element of a slab that is refilled for the next operation.
func (k *Kernel) SpawnStep(p *Proc, s Stepper) {
	if s == nil {
		panic("sim: spawn with a nil process body")
	}
	*p = Proc{s: s}
	k.start(p)
}

// start makes p, which names its body, live and schedules its first
// resume at the current virtual time.
func (k *Kernel) start(p *Proc) {
	p.k, p.id, p.since, p.ttk = k, k.nextID, k.now, trace.NoTrack
	k.nextID++
	k.live.add(p)
	k.mSpawns.Inc()
	k.tracer.Counter(k.ktrack, "live_procs", int64(k.now), int64(k.live.n))
	k.schedule(event{t: k.now, p: p}) // the first resume starts it
}

// liveSet is the set of spawned, unfinished processes: a doubly linked
// list threaded through the processes themselves, so a process joins and
// leaves it without allocating.
type liveSet struct {
	head *Proc
	n    int
}

func (s *liveSet) add(p *Proc) {
	p.next = s.head
	if s.head != nil {
		s.head.prev = p
	}
	s.head = p
	s.n++
}

func (s *liveSet) remove(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		s.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	s.n--
}

// next dispatches events until one resumes a live worker process and
// returns that process. Cancelled timers are dropped before they touch the
// clock; callbacks, step processes' steps and stale wakes for finished
// processes are consumed inline. next returns nil when the queue drains,
// when the event budget trips, or when a callback or a step panics (the
// value is kept for Run to re-raise). It runs on the driver
// goroutine only, so no callback or step ever runs on a worker's stack.
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
		if ev.p == nil { // a callback, or a timer's
			fn := ev.fn
			if tm := ev.tm; tm != nil {
				fn, tm.fn, tm.fired = tm.fn, nil, true
			}
			if !k.call(fn) {
				return nil
			}
			continue
		}
		p := ev.p
		if p.done {
			continue // a stale wake for a finished process
		}
		k.resume(p)
		if p.s != nil {
			if !k.runStep(p) {
				return nil
			}
			continue
		}
		return p
	}
	return nil
}

// resume ends p's wait and finishes the service p waited for at a
// station, if any.
func (k *Kernel) resume(p *Proc) {
	k.endWait(p)
	if s := p.svc; s != nil {
		p.svc = nil
		s.finish(p.svcD)
	}
}

// endWait records p's blocked interval on its trace track (zero-length
// blocks, pure scheduling yields, are skipped) and restarts it at now.
func (k *Kernel) endWait(p *Proc) {
	if tr := k.tracer; tr != nil && p.ttk >= 0 && k.now > p.since {
		tr.SpanAt(p.ttk, "sim", "blocked", int64(p.since), int64(k.now))
	}
	p.since = k.now
}

// runStep runs the step of step process p. A step that arranges no resume
// ends p. A panicking step ends p and stops the run; Run re-raises the
// panic naming p.
func (k *Kernel) runStep(p *Proc) (ok bool) {
	defer func() {
		if !ok {
			r := recover()
			k.panicked = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
			k.retire(p)
		}
	}()
	p.armed = false
	p.s.Step(p)
	if !p.armed {
		k.retire(p)
	}
	return true
}

// retire removes a finished process from the live set. It drops the
// process's stepper, which the caller may reuse once no event names p.
func (k *Kernel) retire(p *Proc) {
	p.done = true
	p.w, p.s = nil, nil
	k.live.remove(p)
	k.tracer.Counter(k.ktrack, "live_procs", int64(k.now), int64(k.live.n))
}

// call runs a kernel callback, recording a panic for Run to re-raise with
// its original value rather than letting it unwind the driver.
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
	k.workers++
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

// exit retires a finishing process; its worker then goes idle and yields
// to the driver, which dispatches the next event. A process panic is kept
// for Run to re-raise, and the driver stops the run on it.
func (p *Proc) exit() {
	k := p.k
	r := recover()
	k.retire(p)
	if r != nil {
		k.panicked = fmt.Sprintf("sim: process %q panicked: %v", p.Name(), r)
	}
}

// drive is the run's driver: it dispatches events with next and resumes
// each worker process next returns, until next returns nil or a process
// panics, then tells Run. Every callback and step runs here, between
// resumes, so a worker's stack holds only its own body's frames. A body
// that calls runtime.Goexit ends its worker, and iter.Pull passes the
// Goexit on to the goroutine that resumed the worker: this one. The
// deferred handler then carries the run on from a fresh driver.
func (k *Kernel) drive() {
	stopped := false
	defer func() {
		if !stopped {
			go k.drive()
			return
		}
		k.stopped <- struct{}{}
	}()
	for k.panicked == nil {
		p := k.next()
		if p == nil {
			break
		}
		if p.w == nil {
			k.attach(p)
		}
		if _, ok := p.w.resume(); !ok {
			panic(fmt.Sprintf("sim: process %q resumed on an ended worker", p.Name()))
		}
	}
	stopped = true
}

// WorkersStarted returns how many worker coroutines the kernel has started
// over its lifetime. Finished processes hand theirs on, so the count tracks
// the peak number of live worker processes, not how many ran; step
// processes take none.
func (k *Kernel) WorkersStarted() int64 { return k.workers }

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
	go k.drive()
	<-k.stopped
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
	if k.live.n > 0 {
		names := make([]string, 0, k.live.n)
		for p := k.live.head; p != nil; p = p.next {
			names = append(names, p.Name())
		}
		sort.Strings(names)
		return fmt.Errorf("sim: deadlock at t=%v: %d process(es) still blocked: %v", k.now, len(names), names)
	}
	return nil
}

// Proc is a simulation process: a body that the kernel runs on a worker
// coroutine, or a Stepper that it runs inline (SpawnStep), scheduled in
// virtual time. All Proc methods must be called from the process's own
// body or step.
type Proc struct {
	k          *Kernel
	name       string // empty for a step process until Name resolves it
	id         int
	fn         func(p *Proc) // worker body until the first resume starts it; nil = started
	s          Stepper       // body of a step process until it ends; nil for a worker process
	w          *worker       // worker running the body; nil for steps, before start and after exit
	prev, next *Proc         // neighbours in the kernel's live set
	since      Time          // when the process last gave up control
	svc        *Station      // station the process queues at or is served by, or nil
	svcD       Time          // service time at svc
	ttk        trace.TrackID

	done  bool
	armed bool // the running step has arranged its next resume
}

// Name returns the process name given at Spawn, or a step process's
// Stepper name, resolved on first use.
func (p *Proc) Name() string {
	if p.name == "" && p.s != nil {
		p.name = p.s.Name()
	}
	return p.name
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// SetTraceTrack assigns the trace timeline that this process's blocked
// intervals are recorded on. Processes without a track (the default) record
// nothing.
func (p *Proc) SetTraceTrack(tk trace.TrackID) { p.ttk = tk }

// mustBlock panics unless p has a worker to block on: a step process
// cannot block.
func (p *Proc) mustBlock() {
	if p.w == nil {
		panic(fmt.Sprintf("sim: step process %q cannot block", p.Name()))
	}
}

// block gives up control until the process is resumed: it yields to the
// driver, which dispatches events until one resumes a worker and switches
// to it, this one included.
func (p *Proc) block() {
	if p.k.probe != nil {
		p.k.probe()
	}
	p.w.yield(struct{}{})
}

// Then arranges for the step process p to resume after d of virtual time
// (Sleep is Then followed by a block). With d == 0 the resume still waits
// behind the same-time events scheduled earlier.
func (p *Proc) Then(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.armed = true
	p.k.schedule(event{t: p.k.now + d, p: p})
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Time) {
	p.mustBlock()
	p.Then(d)
	p.block()
}

// Park blocks the process until its next resume: a Kernel.Wake from another
// process or a kernel callback, or one the process arranged itself with
// Then or Station.ServeThen. Each Park must be matched by exactly one
// resume.
func (p *Proc) Park() {
	p.mustBlock()
	p.block()
}

// ParkThen arranges for the step process p to resume at its next
// Kernel.Wake from another process or a kernel callback (Park, for a
// worker process, is the wait itself).
func (p *Proc) ParkThen() { p.armed = true }

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
