package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/trace"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var end Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Second)
		p.Sleep(250 * Millisecond)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 5*Second + 250*Millisecond; end != want {
		t.Fatalf("end time = %v, want %v", end, want)
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(1 * Second) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (full order %v)", i, v, i, order)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterCallbackFires(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.After(3*Second, func() { at = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*Second {
		t.Fatalf("callback at %v, want 3s", at)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childEnd Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(1 * Second)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(2 * Second)
			childEnd = c.Now()
		})
		p.Sleep(10 * Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 3*Second {
		t.Fatalf("child end = %v, want 3s", childEnd)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	if err := k.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

// TestStationSerializesSingleServer also pins the hand-off: a freed server
// goes straight to the head waiter, so each service costs the client one
// event, its end, however long it queued (4 starts plus 4 ends), and the
// client's blocked spans are its queue wait and its service.
func TestStationSerializesSingleServer(t *testing.T) {
	k := NewKernel(1)
	tr := trace.New()
	k.SetTracer(tr)
	s := NewStation(k, "disk", "disk", 1)
	var ends []Time
	tracks := make([]trace.TrackID, 4)
	for i := range tracks {
		tracks[i] = tr.Track(trace.GroupRanks, fmt.Sprintf("client %d", i))
		k.Spawn("client", func(p *Proc) {
			p.SetTraceTrack(tracks[i])
			s.Serve(p, 1*Second)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, e := range ends {
		if want := Time(i+1) * Second; e != want {
			t.Fatalf("ends[%d] = %v, want %v", i, e, want)
		}
	}
	if s.Served != 4 || s.BusyTime != 4*Second {
		t.Fatalf("stats: served=%d busy=%v", s.Served, s.BusyTime)
	}
	if n := k.EventsDispatched(); n != 8 {
		t.Errorf("%d events dispatched, want 8: a queued service must cost only its end", n)
	}
	blocked := make(map[trace.TrackID][][2]Time)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSpan && ev.Name == "blocked" {
			blocked[ev.Track] = append(blocked[ev.Track], [2]Time{Time(ev.Start), Time(ev.Start + ev.Dur)})
		}
	}
	for i, tk := range tracks {
		var want [][2]Time
		if i > 0 { // client 0 finds the server free: no queue wait
			want = append(want, [2]Time{0, Time(i) * Second})
		}
		want = append(want, [2]Time{Time(i) * Second, Time(i+1) * Second})
		if got := blocked[tk]; !reflect.DeepEqual(got, want) {
			t.Errorf("client %d blocked spans %v, want %v", i, got, want)
		}
	}
}

func TestStationParallelServers(t *testing.T) {
	k := NewKernel(1)
	s := NewStation(k, "raid", "raid", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("client", func(p *Proc) {
			s.Serve(p, 1*Second)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two at a time: completions at 1s,1s,2s,2s.
	want := []Time{Second, Second, 2 * Second, 2 * Second}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestStationServeBytesAccounting(t *testing.T) {
	k := NewKernel(1)
	s := NewStation(k, "link", "link", 1)
	k.Spawn("client", func(p *Proc) {
		s.ServeBytes(p, 1*Millisecond, 1000*MBps, 500_000_000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes != 500_000_000 {
		t.Fatalf("bytes = %d", s.Bytes)
	}
	if got, want := k.Now(), 1*Millisecond+500*Millisecond; got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

func TestDeterminismSameSeedSameSchedule(t *testing.T) {
	run := func(seed int64) []Time {
		k := NewKernel(seed)
		s := NewStation(k, "disk", "disk", 1)
		jit := UnitLogNormal(0.4)
		var ends []Time
		for i := 0; i < 16; i++ {
			k.Spawn("c", func(p *Proc) {
				d := Jitter(k.Rand(), jit, 100*Millisecond)
				s.Serve(p, d)
				ends = append(ends, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules")
	}
}

func TestUnitLogNormalMeanNearOne(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d := UnitLogNormal(0.45)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("mean = %f, want ~1", mean)
	}
}

func TestRateDurationProperty(t *testing.T) {
	f := func(kb uint16) bool {
		n := int64(kb) * 1024
		d := Rate(1 * GBps).DurationFor(n)
		// 1 GB/s => 1 ns per byte, up to float rounding.
		diff := int64(d) - n
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRateDurationNonNegative(t *testing.T) {
	if Rate(0).DurationFor(100) != 0 || Rate(100).DurationFor(-5) != 0 {
		t.Fatal("degenerate rate/size must yield zero duration")
	}
}

func TestJitterNilDistIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if Jitter(r, nil, 5*Second) != 5*Second {
		t.Fatal("nil dist must not change duration")
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel(1)
	p1 := k.Spawn("alpha", func(p *Proc) {})
	p2 := k.Spawn("beta", func(p *Proc) {})
	if p1.Name() != "alpha" || p2.Name() != "beta" {
		t.Fatal("names not preserved")
	}
	if p1.ID() == p2.ID() {
		t.Fatal("ids must be unique")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeStringUnits(t *testing.T) {
	cases := map[Time]string{
		2 * Second:      "2.000s",
		3 * Millisecond: "3.000ms",
		4 * Microsecond: "4.000µs",
		5:               "5ns",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestWakeAtFiresAtGivenTime(t *testing.T) {
	k := NewKernel(1)
	var sleeper *Proc
	var woke Time
	sleeper = k.Spawn("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	k.After(Millisecond, func() { k.WakeAt(2*Second, sleeper) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2*Second {
		t.Fatalf("woke at %v, want 2s", woke)
	}
}

func TestStationQueueHighWaterMark(t *testing.T) {
	k := NewKernel(1)
	s := NewStation(k, "disk", "disk", 1)
	for i := 0; i < 5; i++ {
		k.Spawn("c", func(p *Proc) { s.Serve(p, Second) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if s.QueuedMax != 4 {
		t.Fatalf("queue high-water = %d, want 4", s.QueuedMax)
	}
	if u := s.Utilization(5 * Second); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %f, want ~1", u)
	}
}

func TestEventBudgetAbortsLivelock(t *testing.T) {
	// A process re-arms itself forever; without the watchdog, Run would
	// never return. The budget turns that into an error naming the
	// livelock.
	k := NewKernel(1)
	k.SetEventBudget(1000)
	k.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(Millisecond)
		}
	})
	err := k.Run()
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
	if k.EventsDispatched() < 1000 {
		t.Fatalf("dispatched %d events, want >= budget", k.EventsDispatched())
	}
}

func TestEventBudgetOffByDefault(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("s", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoppedTimerDoesNotPerturbTime(t *testing.T) {
	// Two kernels run the same workload; one additionally arms and cancels
	// a timer mid-run. Virtual time, dispatch counts, and final state must
	// be identical: a cancelled timer may not leave any footprint.
	run := func(withTimer bool) (Time, int64) {
		k := NewKernel(1)
		k.Spawn("worker", func(p *Proc) {
			var tm *Timer
			if withTimer {
				tm = k.AfterTimer(1*Second, func() {
					t.Error("cancelled timer fired")
				})
			}
			p.Sleep(10 * Millisecond)
			if withTimer {
				if !tm.Stop() {
					t.Error("Stop() = false before the due time")
				}
				tm.Stop() // double-stop is a no-op
			}
			p.Sleep(5 * Second)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), k.EventsDispatched()
	}
	baseNow, baseEvents := run(false)
	timerNow, timerEvents := run(true)
	if timerNow != baseNow {
		t.Fatalf("final time with cancelled timer = %v, want %v", timerNow, baseNow)
	}
	if timerEvents != baseEvents {
		t.Fatalf("events dispatched with cancelled timer = %d, want %d", timerEvents, baseEvents)
	}
}

func TestTimerFiresWhenNotStopped(t *testing.T) {
	k := NewKernel(1)
	var firedAt Time = -1
	tm := k.AfterTimer(2*Second, func() { firedAt = k.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != 2*Second {
		t.Fatalf("timer fired at %v, want %v", firedAt, 2*Second)
	}
	if !tm.Fired() {
		t.Fatal("Fired() = false after the callback ran")
	}
	if tm.Stop() {
		t.Fatal("Stop() = true after the timer fired")
	}
}

// runPanic runs k and returns the value Run panicked with, or nil.
func runPanic(k *Kernel) (v interface{}) {
	defer func() { v = recover() }()
	_ = k.Run()
	return nil
}

func TestProcessPanicNamesProcess(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	k.Spawn("faulty", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	v := runPanic(k)
	if want := `sim: process "faulty" panicked: boom`; v != want {
		t.Fatalf("Run panicked with %v, want %q", v, want)
	}
}

func TestCallbackPanicReachesRunCaller(t *testing.T) {
	sentinel := errors.New("callback failure")
	cases := map[string]func(k *Kernel){
		// The callback is popped by the driver while the process
		// blocks in Sleep.
		"while blocked": func(k *Kernel) {
			k.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
		},
		// The callback is popped right after the only process finishes.
		"after finish": func(k *Kernel) {
			k.Spawn("short", func(p *Proc) {})
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			k := NewKernel(1)
			setup(k)
			k.After(Millisecond, func() { panic(sentinel) })
			if v := runPanic(k); v != sentinel {
				t.Fatalf("Run panicked with %v, want the callback's own value", v)
			}
		})
	}
}

func TestGoexitFinishesProcess(t *testing.T) {
	k := NewKernel(1)
	var after, other bool
	k.Spawn("exiter", func(p *Proc) {
		p.Sleep(Millisecond)
		runtime.Goexit()
		after = true
	})
	k.Spawn("other", func(p *Proc) {
		p.Sleep(Second)
		other = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if after || !other {
		t.Fatalf("after Goexit ran=%v, other finished=%v; want false, true", after, other)
	}
	if k.Now() != Second {
		t.Fatalf("run ended at %v, want 1s", k.Now())
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		k := NewKernel(int64(i))
		for j := 0; j < 50; j++ {
			d := Time(j%7) * Microsecond
			k.Spawn("short", func(p *Proc) { p.Sleep(d) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// A Goexit ends its worker and the driver that resumed it.
	k := NewKernel(1)
	for j := 0; j < 50; j++ {
		d := Time(j%7) * Microsecond
		k.Spawn("short", func(p *Proc) { p.Sleep(d) })
	}
	k.Spawn("exiter", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		runtime.Goexit()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A recovered process panic stops the run with idle workers left over.
	k = NewKernel(1)
	for j := 0; j < 50; j++ {
		k.Spawn("short", func(p *Proc) { p.Sleep(Microsecond) })
	}
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(Millisecond)
		panic("boom")
	})
	if v := runPanic(k); v == nil {
		t.Fatal("Run did not re-raise the process panic")
	}
	// A large idle pool: every process starts before any finishes.
	k = NewKernel(1)
	for j := 0; j < 2000; j++ {
		k.Spawn("wide", func(p *Proc) { p.Sleep(Second) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Run stops idle workers before it returns; a Goexited driver's
	// goroutine may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunAfterRecoveredPanic(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	if v := runPanic(k); v != `sim: process "bad" panicked: boom` {
		t.Fatalf("first Run panicked with %v, want the process panic", v)
	}
	finished := false
	k.Spawn("good", func(p *Proc) {
		p.Sleep(Second)
		finished = true
	})
	var err error
	v := func() (v interface{}) {
		defer func() { v = recover() }()
		err = k.Run()
		return nil
	}()
	if v != nil || err != nil {
		t.Fatalf("second Run: panic %v, error %v; want a clean run", v, err)
	}
	if !finished {
		t.Fatal("the process spawned after the recovered panic did not finish")
	}
}

// TestGoexitWorkerNeverReused checks that the worker a Goexit ended never
// goes back on the idle list, and that the run carries on: every process
// spawned afterwards starts on a live worker and finishes.
func TestGoexitWorkerNeverReused(t *testing.T) {
	k := NewKernel(1)
	const n = 300
	var dead *worker
	started, finished := 0, 0
	check := func(where string) {
		for _, w := range k.idle {
			if w == dead {
				t.Errorf("%s: the Goexited worker is on the idle list", where)
			}
		}
	}
	for j := 0; j < 20; j++ {
		k.Spawn("early", func(p *Proc) { p.Sleep(Time(j%3) * Microsecond) })
	}
	k.Spawn("exiter", func(p *Proc) {
		dead = p.w
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	k.Spawn("spawner", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		for i := 0; i < n; i++ {
			k.Spawn("child", func(c *Proc) {
				started++
				if c.w == dead {
					t.Error("a process started on the Goexited worker")
				}
				c.Sleep(Time(i%3) * Microsecond)
				finished++
			})
			if i%10 == 0 {
				k.After(0, func() { check("callback") })
			}
			p.Sleep(Time(i%2) * Microsecond)
		}
		check("spawner")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dead == nil || started != n || finished != n {
		t.Fatalf("Goexited worker %p; %d of %d children started, %d finished", dead, started, n, finished)
	}
}

// BenchmarkKernelSleep is one process sleeping b.N times: every resume goes
// back to the process that just blocked.
func BenchmarkKernelSleep(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// runPingPong runs two processes that wake each other n times.
func runPingPong(n int) error {
	k := NewKernel(1)
	var ping, pong *Proc
	ping = k.Spawn("ping", func(p *Proc) {
		for i := 0; i < n; i++ {
			k.Wake(pong)
			p.Park()
		}
		k.Wake(pong)
	})
	pong = k.Spawn("pong", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Park()
			k.Wake(ping)
		}
		p.Park()
	})
	return k.Run()
}

// BenchmarkKernelPingPong is two processes waking each other b.N times.
// It first fails if a switch between them allocates, measured as the
// difference between runs of 2000 and 1000 round trips so the per-kernel
// setup cancels out. A round trip is two switches, so one allocation per
// switch would show as 2 per round trip; the 0.1 allowance absorbs
// runtime noise.
func BenchmarkKernelPingPong(b *testing.B) {
	b.ReportAllocs()
	const n = 1000
	var err error
	small := mallocs(func() { err = runPingPong(n) })
	large := mallocs(func() { err = errors.Join(err, runPingPong(2*n)) })
	if err != nil {
		b.Fatal(err)
	}
	if per := float64(int64(large)-int64(small)) / n; per > 0.1 {
		b.Fatalf("%.3f allocations per round trip, want 0", per)
	}
	b.ResetTimer()
	if err := runPingPong(b.N); err != nil {
		b.Fatal(err)
	}
}

// runSpawns runs a parent process that spawns n short-lived children, one
// at a time.
func runSpawns(n int) error {
	k := NewKernel(1)
	child := func(c *Proc) {}
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < n; i++ {
			k.Spawn("child", child)
			p.Sleep(Nanosecond)
		}
	})
	return k.Run()
}

// mallocs returns the heap allocations f makes.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// BenchmarkKernelSpawn spawns b.N short-lived children. It first fails if
// a spawned process costs more than 1 allocation (the Proc itself: each
// child reuses the worker the previous one left idle), measured as the
// difference between runs of 2000 and 1000 spawns so the per-kernel setup
// cancels out. The 0.1 allowance absorbs amortized growth (the event
// queue); a second allocation per spawn would
// show as a full unit.
func BenchmarkKernelSpawn(b *testing.B) {
	b.ReportAllocs()
	const n = 1000
	var err error
	small := mallocs(func() { err = runSpawns(n) })
	large := mallocs(func() { err = errors.Join(err, runSpawns(2*n)) })
	if err != nil {
		b.Fatal(err)
	}
	if per := float64(int64(large)-int64(small)) / n; per > 1.1 {
		b.Fatalf("%.3f allocations per spawned process, want <= 1", per)
	}
	b.ResetTimer()
	if err := runSpawns(b.N); err != nil {
		b.Fatal(err)
	}
}

// TestWokenWaiterSlotReleased checks that Station.Release clears the
// popped waiter slot, so the backing array does not keep a woken (and
// later finished) process reachable.
func TestWokenWaiterSlotReleased(t *testing.T) {
	k := NewKernel(1)
	s := NewStation(k, "disk", "disk", 1)
	var backing []*Proc
	k.Spawn("holder", func(p *Proc) { s.Serve(p, Second) })
	k.Spawn("queued", func(p *Proc) { s.Serve(p, Second) })
	k.After(Millisecond, func() { backing = s.waiters.ps })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if backing[0] != nil {
		t.Fatalf("popped waiter slot still set: %v", backing[0])
	}
}

// TestWaitQueueKeepsItsArray drives a procQueue through random pushes and
// pops against a plain slice: it must pop in strict FIFO order, and a
// queue that never holds more than 8 processes must keep one array of at
// most twice that, however often it fills and drains.
func TestWaitQueueKeepsItsArray(t *testing.T) {
	procs := make([]*Proc, 64)
	for i := range procs {
		procs[i] = &Proc{}
	}
	var q procQueue
	var ref []*Proc
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 100000; step++ {
		if n := q.len(); n != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, n, len(ref))
		}
		if len(ref) < 8 && (len(ref) == 0 || rng.Intn(2) == 0) {
			p := procs[step%len(procs)]
			q.push(p)
			ref = append(ref, p)
			continue
		}
		if p := q.pop(); p != ref[0] {
			t.Fatalf("step %d: popped %p, want %p", step, p, ref[0])
		}
		ref = ref[1:]
	}
	if c := cap(q.ps); c > 16 {
		t.Fatalf("the queue's array holds %d slots for at most 8 processes", c)
	}
}
