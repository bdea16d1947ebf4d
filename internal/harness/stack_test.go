package harness

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// rankStackBytes is the stack a rank's worker coroutine must fit in: Go
// stacks come in powers of two from 2 KiB, and one that outgrows 4 KiB is
// copied to 8 KiB.
const rankStackBytes = 4 << 10

// stackProbe is the stack gate's block probe (sim.Kernel.SetBlockProbe).
// At every block point of a worker process it measures the bytes of its
// goroutine's stack in use and keeps the call chain of the deepest one,
// with each physical frame's size. It only reads (the stack, the call
// chain and the runtime's stack memory): it schedules no events and draws
// no randomness.
//
// The bytes in use are found without runtime internals: every goroutine's
// outermost frame returns to the same runtime PC (runtime.goexit's), and
// that return address sits in the stack's top slot. The probe scans its
// own goroutine's stack upward from one of its locals to that slot.
//
// At block points under shallowBytes it also reads the runtime's stack
// memory (/memory/classes/heap/stacks) and keeps the largest reading. A
// rank passes such a point at every barrier and compute phase, when all
// ranks are alive, so the readings cover the run's plateau; the read
// itself needs the headroom a deep point lacks.
type stackProbe struct {
	top     uintptr   // the return PC in every worker stack's top slot
	pcs     []uintptr // runtime.Callers scratch, kept off the probed stack
	deepest int       // most bytes in use at a block point
	chain   string    // the deepest block point's call chain, innermost first

	shallow int                // bytes in use up to which a block point reads the stack memory
	stacks  []rtmetrics.Sample // heap/stacks reading scratch
	peak    uint64             // largest heap/stacks reading
}

// shallowBytes bounds the block points at which the probe reads the
// runtime's stack memory.
const shallowBytes = 1200

func newStackProbe() *stackProbe {
	return &stackProbe{
		pcs:     make([]uintptr, 128),
		shallow: shallowBytes,
		stacks:  []rtmetrics.Sample{{Name: "/memory/classes/heap/stacks:bytes"}},
	}
}

// readStacks returns the runtime's stack memory.
//
//go:noinline
func (sp *stackProbe) readStacks() uint64 {
	rtmetrics.Read(sp.stacks)
	return sp.stacks[0].Value.Uint64()
}

// blocked is the probe's hook. Its frame stays small: the probe runs on
// the very stack it measures.
//
//go:noinline
func (sp *stackProbe) blocked() {
	var here uintptr
	base := unsafe.Pointer(&here)
	if sp.top == 0 {
		n := runtime.Callers(0, sp.pcs)
		sp.top = sp.pcs[n-1]
	}
	off := uintptr(0)
	for *(*uintptr)(unsafe.Add(base, off)) != sp.top {
		off += unsafe.Sizeof(here)
	}
	used := int(off + unsafe.Sizeof(here))
	if used > sp.deepest {
		sp.deepest = used
		sp.record(base, off)
	}
	if used <= sp.shallow {
		sp.peak = max(sp.peak, sp.readStacks())
	}
}

// record renders the call chain of the block point whose stack runs from
// base up to the top slot at base+top. Each physical frame spans from
// the slot holding the return address into it up to the slot holding
// its own return address; its size goes on the line of the outermost
// function inlined there. It runs only when the deepest block point
// grows, a few times a run, and its formatting may grow that rank's
// stack.
//
//go:noinline
func (sp *stackProbe) record(base unsafe.Pointer, top uintptr) {
	n := runtime.Callers(0, sp.pcs)
	pcs := sp.pcs[:n]
	// slot[i] is the stack offset of pcs[i] as a return address, or -1
	// for an inlined frame's PC, which no stack slot holds.
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
	}
	next := 0
	for off := uintptr(0); off <= top && next < n; off += unsafe.Sizeof(uintptr(0)) {
		w := *(*uintptr)(unsafe.Add(base, off))
		for i := next; i < n; i++ {
			if pcs[i] == w {
				slot[i], next = int(off), i+1
				break
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "deepest block point: %d bytes of stack in use\n", sp.deepest)
	frames := runtime.CallersFrames(pcs)
	for i := 0; i < n; i++ {
		f, _ := frames.Next()
		// Frame i owns the bytes between its group's slot and the next
		// found slot when frame i+1 starts a new physical frame.
		size := "     "
		if i+1 < n && slot[i+1] >= 0 {
			lo := i
			for lo > 0 && slot[lo] < 0 {
				lo--
			}
			if slot[lo] >= 0 {
				size = fmt.Sprintf("%5d", slot[i+1]-slot[lo])
			}
		}
		fmt.Fprintf(&b, "  %s  %s\n", size, f.Function)
	}
	sp.chain = b.String()
}

// stackGate runs one probed 1024-rank clean RunScale after a warm one,
// checks that the probe perturbed nothing, and returns how much the
// runtime's stack memory rose over the run, the limit on that rise, and
// the probe. With pad, every block point calls the probe under a 4 KiB
// array (the sabotage self-test).
//
// The rise is the probe's peak reading less the reading just before the
// run. That level, after a GC, is stack memory the runtime keeps for reuse
// (dead goroutines' stacks, per-P stack caches): 0.4-3.5 MiB after a warm
// 1024-rank run on a 2-core x86-64 VM with go1.24, of which the run's
// workers take up part. So the peak itself sits 0.3-0.5 MiB above the
// workers' 4 MiB, more than the 10% the limit allows, while the rise
// reads 2.9-4.0 MiB with every worker at 4 KiB and 6.5-7.8 MiB when they
// need 8 KiB.
func stackGate(t *testing.T, pad bool) (rise, limit uint64, sp *stackProbe) {
	cfg := ScaleConfig{Variant: ScaleClean, Ranks: 1024}
	warm, err := RunScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp = newStackProbe()
	hook := sp.blocked
	if pad {
		// The padded stacks have 4 KiB more room for the reading too.
		sp.shallow += rankStackBytes
		hook = func() { padStack(sp.blocked) }
	}
	runtime.GC()
	before := sp.readStacks()
	rep, err := runScale(cfg, hook)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Digest() != warm.Digest() {
		t.Fatalf("the block probe changed the run:\n%s\nwant\n%s", rep.Text(), warm.Text())
	}
	t.Logf("stack memory %.2f MiB before the run, %.2f MiB at its peak, over %d workers",
		float64(before)/(1<<20), float64(sp.peak)/(1<<20), rep.Workers)
	return sp.peak - min(before, sp.peak), uint64(float64(rankStackBytes*rep.Workers) * 1.1), sp
}

// chainBudget is the stack a block point's call chain may use: 4 KiB less
// Go's 928-byte stack guard. A deeper chain makes the function that
// crosses the guard grow its stack to 8 KiB.
const chainBudget = rankStackBytes - 928

// TestRankStacksFit4KiB is the rank path's stack gate, over one warm
// 1024-rank clean RunScale: the stack memory the run adds may be at most
// 4 KiB per worker plus 10%, and the deepest block point's chain must fit
// chainBudget. A rank that outgrows 4 KiB anywhere has its stack copied to
// 8 KiB, which the first check shows once many ranks do; the second names
// a single blocking path that would.
func TestRankStacksFit4KiB(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two kilo-rank runs, sized for the non-race stack guard; skipped under -short and -race")
	}
	rise, limit, sp := stackGate(t, false)
	t.Logf("the run added %.2f MiB of stack, limit %.2f MiB\n%s", float64(rise)/(1<<20), float64(limit)/(1<<20), sp.chain)
	if rise > limit {
		t.Errorf("the run added %d bytes of stack, want <= %d (4 KiB per worker + 10%%)\n%s", rise, limit, sp.chain)
	}
	if sp.deepest > chainBudget {
		t.Errorf("a block point's chain uses %d bytes of stack, want <= %d\n%s", sp.deepest, chainBudget, sp.chain)
	}
}

// padStack puts a 4 KiB array on the stack below fn's frame.
//
//go:noinline
func padStack(fn func()) {
	var pad [rankStackBytes]byte
	i := int(time.Now().UnixNano()) & (len(pad) - 1)
	pad[i] = 1
	fn()
	stackSink += pad[(i+1)&(len(pad)-1)]
}

var stackSink byte

// TestRankStacksGateTrips is the stack gate's sabotage self-test: a 4 KiB
// local array on the rank path, at every block point, must trip both of
// its checks.
func TestRankStacksGateTrips(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("two kilo-rank runs, sized for the non-race stack guard; skipped under -short and -race")
	}
	rise, limit, sp := stackGate(t, true)
	if rise <= limit {
		t.Errorf("a 4 KiB array on the rank path left the run's stack rise at %d bytes, within the %d limit", rise, limit)
	}
	if sp.deepest <= chainBudget {
		t.Errorf("a 4 KiB array on the rank path left the deepest chain at %d bytes, within the %d budget", sp.deepest, chainBudget)
	}
}
