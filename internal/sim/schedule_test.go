package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var updateSchedule = flag.Bool("update", false, "rewrite testdata/schedule_golden.json from the current kernel")

// schedProgram is one seeded program for the schedule golden. Every step a
// process or callback takes is logged as (now, proc id, step), so any change
// to how the kernel interleaves resumes, spawns and callbacks — including
// callbacks against resumes, which the harness goldens never exercise —
// changes the log's hash.
type schedProgram struct {
	k    *Kernel
	rng  *rand.Rand // drives every choice; consumed in dispatch order
	log  hash.Hash
	cond *waitQueue
	st   *Station
}

func (g *schedProgram) logf(id int, format string, args ...interface{}) {
	fmt.Fprintf(g.log, "%d %d %s\n", g.k.Now(), id, fmt.Sprintf(format, args...))
}

// delay draws from a small set of durations so same-time ties are common.
func (g *schedProgram) delay() Time { return Time(g.rng.Intn(4)) * Microsecond }

// body returns a process body taking steps random operations; depth bounds
// how deep children (and callbacks' spawns) may nest.
func (g *schedProgram) body(steps, depth int) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < steps; i++ {
			op := g.rng.Intn(11)
			g.logf(p.ID(), "step %d op %d", i, op)
			switch op {
			case 0:
				p.Sleep(0)
			case 1:
				p.Sleep(g.delay() + Microsecond)
			case 2:
				if depth > 0 {
					c := g.k.Spawn("child", g.body(g.rng.Intn(4)+1, depth-1))
					g.logf(p.ID(), "spawned %d", c.ID())
				}
			case 3:
				n := g.rng.Intn(3)
				g.k.After(g.delay(), func() { g.callback(n, depth) })
			case 4:
				tm := g.k.AfterTimer(g.delay()+Microsecond, func() { g.logf(-1, "timer") })
				if g.rng.Intn(2) == 0 {
					p.Sleep(g.delay())
					g.logf(p.ID(), "stop %v", tm.Stop())
				}
			case 5:
				// Each Wait arms exactly one later Signal (or Broadcast), so
				// every waiter is eventually woken.
				bc := g.rng.Intn(4) == 0
				g.k.After(g.delay(), func() {
					if bc {
						g.logf(-1, "broadcast %d", g.cond.Waiting())
						g.cond.Broadcast()
						return
					}
					g.logf(-1, "signal %v", g.cond.Signal())
				})
				g.cond.Wait(p)
			case 6:
				g.k.WakeAt(g.k.Now()+g.delay(), p)
				p.Park()
			case 7:
				d := g.delay()
				g.k.After(d, func() { g.k.Wake(p) })
				p.Park()
			case 8:
				// A sibling wakes the parent: a cross-process handoff.
				parent := p
				d := g.delay()
				g.k.Spawn("waker", func(w *Proc) {
					w.Sleep(d)
					g.logf(w.ID(), "wake %d", parent.ID())
					g.k.Wake(parent)
				})
				p.Park()
			case 9, 10:
				g.st.Serve(p, g.delay()+Microsecond)
			}
			g.logf(p.ID(), "step %d done", i)
		}
	}
}

// callback is an After body: it logs, and may spawn a process or schedule a
// further callback.
func (g *schedProgram) callback(n, depth int) {
	g.logf(-1, "callback %d", n)
	switch n {
	case 1:
		if depth > 0 {
			c := g.k.Spawn("cb-child", g.body(g.rng.Intn(3)+1, depth-1))
			g.logf(-1, "cb spawned %d", c.ID())
		}
	case 2:
		g.k.After(0, func() { g.logf(-1, "nested callback") })
	}
}

// scheduleDigest runs the program generated from seed and returns the hex
// SHA-256 of its step log, closed by the final time and dispatch count.
func scheduleDigest(t *testing.T, seed int64) string {
	t.Helper()
	k := NewKernel(seed)
	g := &schedProgram{
		k:    k,
		rng:  rand.New(rand.NewSource(seed)),
		log:  sha256.New(),
		cond: &waitQueue{k: k},
		st:   NewStation(k, "st", "st", 2),
	}
	for i, n := 0, g.rng.Intn(4)+3; i < n; i++ {
		k.Spawn("root", g.body(g.rng.Intn(12)+4, 2))
	}
	k.After(Microsecond, func() { g.callback(1, 1) })
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fmt.Fprintf(g.log, "end %d %d\n", k.Now(), k.EventsDispatched())
	return hex.EncodeToString(g.log.Sum(nil))
}

// TestKernelScheduleGolden pins the kernel's interleaving of process
// resumes, spawns (from processes and from callbacks), Sleep(0)/Sleep(d),
// Park/Wake, WakeAt, a wait queue on Park/Wake, a two-server Station,
// After and AfterTimer with and without Stop, for seeds 1..64. Regenerate
// deliberately with
//
//	go test ./internal/sim -run TestKernelScheduleGolden -update
func TestKernelScheduleGolden(t *testing.T) {
	got := make(map[string]string)
	for seed := int64(1); seed <= 64; seed++ {
		got[strconv.FormatInt(seed, 10)] = scheduleDigest(t, seed)
	}
	golden := filepath.Join("testdata", "schedule_golden.json")
	if *updateSchedule {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d seeds, run has %d", len(want), len(got))
	}
	for seed := 1; seed <= 64; seed++ {
		s := strconv.Itoa(seed)
		if got[s] != want[s] {
			t.Errorf("seed %s: schedule digest %s, golden %s", s, got[s], want[s])
		}
	}
}
