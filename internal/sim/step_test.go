package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// stepOp is one operation of a stepProgram process.
type stepOp struct {
	kind int  // opServe, opSleep, opWait, opSpawn or opPark
	idx  int  // station or cond index
	d    Time // service or sleep time; for opWait, the signal's delay
	bc   bool // opWait: the signal is a Broadcast
	kids []stepOp
}

const (
	opServe = iota
	opSleep
	opWait
	opSpawn
	opPark // wait for a Wake from a callback d later
)

// genStepOps draws n random operations; depth bounds nested spawns.
func genStepOps(rng *rand.Rand, n, depth int) []stepOp {
	ops := make([]stepOp, n)
	for i := range ops {
		o := stepOp{kind: rng.Intn(5), d: Time(rng.Intn(4)) * Microsecond}
		switch o.kind {
		case opServe:
			o.idx = rng.Intn(3)
		case opWait:
			o.idx = rng.Intn(2)
			o.bc = rng.Intn(5) == 0
		case opSpawn:
			if depth == 0 {
				o.kind = opSleep
				break
			}
			o.kids = genStepOps(rng, rng.Intn(4)+1, depth-1)
		}
		ops[i] = o
	}
	return ops
}

// stepRun runs one stepProgram. Every process's ops are written once and
// run either as a worker body, through the blocking calls, or as a step
// process, through their Then forms. Each operation a process starts is
// logged as (time, events dispatched, events scheduled, process id, op),
// so two runs with equal logs resumed every process at the same event.
type stepRun struct {
	k      *Kernel
	tr     *trace.Tracer
	sts    []*Station
	cs     []*Cond
	asStep func(id int) bool
	log    strings.Builder
}

func (r *stepRun) logf(id int, format string, args ...interface{}) {
	fmt.Fprintf(&r.log, "%d %d %d %d ", r.k.now, r.k.dispatched, r.k.seq, id)
	fmt.Fprintf(&r.log, format+"\n", args...)
}

// start begins op o on p's behalf: it does everything the op does before
// its wait, and arms the signal callback of a cond wait.
func (r *stepRun) start(p *Proc, i int, o stepOp) {
	r.logf(p.ID(), "op %d kind %d", i, o.kind)
	switch o.kind {
	case opWait:
		c := r.cs[o.idx]
		r.k.After(o.d, func() {
			if o.bc {
				r.logf(-1, "broadcast %d", c.Waiting())
				c.Broadcast()
				return
			}
			r.logf(-1, "signal %v", c.Signal())
		})
	case opSpawn:
		r.spawn(fmt.Sprintf("child%d", p.ID()), o.kids)
	case opPark:
		r.k.After(o.d, func() {
			r.logf(-1, "wake %d", p.ID())
			r.k.Wake(p)
		})
	}
}

// spawn starts a process running ops, as a worker or as a step process.
func (r *stepRun) spawn(name string, ops []stepOp) {
	var p *Proc
	if r.asStep(r.k.nextID) {
		s := &stepper{r: r, ops: ops}
		p = r.k.SpawnStep(name, nil, s.step)
	} else {
		p = r.k.Spawn(name, r.body(ops))
	}
	if r.tr != nil {
		p.SetTraceTrack(r.tr.Track(trace.GroupRanks, name))
	}
}

// body returns a worker body running ops.
func (r *stepRun) body(ops []stepOp) func(p *Proc) {
	return func(p *Proc) {
		for i := range ops {
			o := ops[i]
			r.start(p, i, o)
			switch o.kind {
			case opServe:
				r.sts[o.idx].Serve(p, o.d)
			case opSleep:
				p.Sleep(o.d)
			case opWait:
				r.cs[o.idx].Wait(p)
			case opPark:
				p.Park()
			}
		}
		r.logf(p.ID(), "done")
	}
}

// stepper is a step process running a stepRun's ops.
type stepper struct {
	r   *stepRun
	ops []stepOp
	i   int
}

func (s *stepper) step(p *Proc) {
	r := s.r
	for ; s.i < len(s.ops); s.i++ {
		o := s.ops[s.i]
		r.start(p, s.i, o)
		switch o.kind {
		case opServe:
			r.sts[o.idx].ServeThen(p, o.d)
		case opSleep:
			p.Then(o.d)
		case opWait:
			r.cs[o.idx].WaitThen(p)
		case opPark:
			p.ParkThen()
		default:
			continue
		}
		s.i++
		return
	}
	r.logf(p.ID(), "done")
}

// stepOutcome is everything a stepRun must reproduce whatever the form of
// its processes.
type stepOutcome struct {
	log, stations, trace string
	events               int64
}

// runStepProgram runs the program generated from seed, with the processes
// asStep picks (by id) as step processes.
func runStepProgram(t *testing.T, seed int64, traced bool, asStep func(id int) bool) stepOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	r := &stepRun{k: k, asStep: asStep}
	if traced {
		r.tr = trace.New()
		k.SetTracer(r.tr)
	}
	for i := 0; i < 3; i++ {
		r.sts = append(r.sts, NewStation(k, "st", fmt.Sprintf("st%d", i), i+1))
	}
	r.cs = []*Cond{NewCond(k), NewCond(k)}
	for i, n := 0, rng.Intn(6)+2; i < n; i++ {
		r.spawn(fmt.Sprintf("root%d", i), genStepOps(rng, rng.Intn(8)+1, 2))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	var out stepOutcome
	out.log = r.log.String()
	out.events = k.EventsDispatched()
	var sb strings.Builder
	for _, s := range r.sts {
		fmt.Fprintf(&sb, "%s busy=%d served=%d bytes=%d qmax=%d\n", s.Name(), s.BusyTime, s.Served, s.Bytes, s.QueuedMax)
	}
	out.stations = sb.String()
	if traced {
		var b bytes.Buffer
		if err := r.tr.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		out.trace = b.String()
	}
	return out
}

// TestStepProcessesMatchWorkers is the step-process equivalence property:
// the same seeded programs, run with every process as a worker, every
// process as a step process, and a mix, dispatch the same events in the
// same order, leave the same station statistics and, traced, write the
// same trace.
func TestStepProcessesMatchWorkers(t *testing.T) {
	forms := map[string]func(id int) bool{
		"steps": func(int) bool { return true },
		"mixed": func(id int) bool { return id%2 == 1 },
	}
	workers := func(int) bool { return false }
	for seed := int64(1); seed <= 150; seed++ {
		traced := seed%2 == 0
		want := runStepProgram(t, seed, traced, workers)
		for name, form := range forms {
			got := runStepProgram(t, seed, traced, form)
			if got.log != want.log {
				t.Fatalf("seed %d, %s: event log differs\nworkers:\n%s\n%s:\n%s", seed, name, want.log, name, got.log)
			}
			if got.events != want.events || got.stations != want.stations {
				t.Fatalf("seed %d, %s: %d events, stations\n%s want %d events, stations\n%s",
					seed, name, got.events, got.stations, want.events, want.stations)
			}
			if got.trace != want.trace {
				t.Fatalf("seed %d, %s: trace differs\nworkers:\n%s\n%s:\n%s", seed, name, want.trace, name, got.trace)
			}
		}
	}
}

func TestStepProcessCannotBlock(t *testing.T) {
	cases := map[string]func(k *Kernel, p *Proc){
		"Sleep":     func(k *Kernel, p *Proc) { p.Sleep(Second) },
		"Park":      func(k *Kernel, p *Proc) { p.Park() },
		"Serve":     func(k *Kernel, p *Proc) { NewStation(k, "s", "s", 1).Serve(p, Second) },
		"Cond.Wait": func(k *Kernel, p *Proc) { NewCond(k).Wait(p) },
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			k := NewKernel(1)
			k.SpawnStep("stepper", nil, func(p *Proc) { call(k, p) })
			want := `sim: process "stepper" panicked: sim: step process "stepper" cannot block`
			if v := runPanic(k); v != want {
				t.Fatalf("Run panicked with %v, want %q", v, want)
			}
		})
	}
}

func TestStepPanicNamesProcess(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	resumes := 0
	k.SpawnStep("", func() string { return "lazy" }, func(p *Proc) {
		if resumes++; resumes == 1 {
			p.Then(Millisecond)
			return
		}
		panic("boom")
	})
	if v := runPanic(k); v != `sim: process "lazy" panicked: boom` {
		t.Fatalf("Run panicked with %v, want the step's panic naming the process", v)
	}
}

func TestStepDeadlockNamesProcess(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k)
	s := NewStation(k, "s", "s", 1)
	k.Spawn("holder", func(p *Proc) { c.Wait(p) })
	k.SpawnStep("", func() string { return "queued-step" }, func(p *Proc) {
		if s.Served == 0 {
			s.ServeThen(p, Second)
			return
		}
		c.WaitThen(p)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "[holder queued-step]") {
		t.Fatalf("Run = %v, want a deadlock naming holder and queued-step", err)
	}
}

// benchMsg is a message-like step process: it serves once at a station,
// then sleeps, then ends.
type benchMsg struct {
	st    *Station
	stage int8
}

func (m *benchMsg) step(p *Proc) {
	switch m.stage {
	case 0:
		m.st.ServeThen(p, Nanosecond)
	case 1:
		p.Then(Microsecond)
	default:
		return
	}
	m.stage++
}

// runStepMessages spawns n step messages, two per nanosecond, through one
// single-server station, so about half of them queue.
func runStepMessages(n int) error {
	k := NewKernel(1)
	st := NewStation(k, "nic", "nic", 1)
	k.Spawn("sender", func(p *Proc) {
		for i := 0; i < n; i++ {
			m := &benchMsg{st: st}
			k.SpawnStep("msg", nil, m.step)
			if i%2 == 1 {
				p.Sleep(Nanosecond)
			}
		}
	})
	return k.Run()
}

// BenchmarkKernelStepMessage runs b.N step messages. It first fails if a
// message costs more than its 3 allocations at spawn (the record, its
// step's method value and the Proc), measured as the difference between
// runs of 2000 and 1000 messages so the per-kernel setup cancels out. A
// message resumes three times, so one allocation per resume would show as
// 3 more per message; the 0.1 allowance absorbs amortized growth (the
// live-process map, the station queue, the event queue).
func BenchmarkKernelStepMessage(b *testing.B) {
	b.ReportAllocs()
	const n = 1000
	var err error
	small := mallocs(func() { err = runStepMessages(n) })
	large := mallocs(func() { err = errors.Join(err, runStepMessages(2*n)) })
	if err != nil {
		b.Fatal(err)
	}
	if per := float64(int64(large)-int64(small)) / n; per > 3.1 {
		b.Fatalf("%.3f allocations per step message, want <= 3", per)
	}
	b.ResetTimer()
	if err := runStepMessages(b.N); err != nil {
		b.Fatal(err)
	}
}
