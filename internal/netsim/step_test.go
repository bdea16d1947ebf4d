package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refTransfer is the reference for the step forms: a worker process moving
// size bytes from n to dst with the blocking NIC accounting spelled out in
// full, independently of the Inject/Eject/LocalCopy bodies under test.
func refTransfer(p *sim.Proc, n, dst *Node, size int64) {
	k, cfg := n.fabric.k, n.fabric.cfg
	if dst == n {
		n.mem.ServeBytes(p, cfg.MemLatency, cfg.MemRate, size)
		if n.metricsOn() {
			n.mCopy.Add(size)
		}
		return
	}
	d := sim.Jitter(k.Rand(), cfg.InjJitter, cfg.InjRate.DurationFor(size))
	if n.metricsOn() {
		t0 := k.Now()
		n.inj.Serve(p, n.stretch(d))
		n.mInjNs.Observe(int64(k.Now() - t0))
		n.mTx.Add(size)
	} else {
		n.inj.Serve(p, n.stretch(d))
	}
	n.inj.Bytes += size
	p.Sleep(cfg.Latency)
	d = dst.stretch(cfg.EjeRate.DurationFor(size))
	if dst.metricsOn() {
		t0 := k.Now()
		dst.eje.Serve(p, d)
		dst.mEjeNs.Observe(int64(k.Now() - t0))
		dst.mRx.Add(size)
	} else {
		dst.eje.Serve(p, d)
	}
	dst.eje.Bytes += size
}

// stepTransfer moves size bytes from src to dst as a step process, through
// the step forms.
type stepTransfer struct {
	src, dst *Node
	size     int64
	stage    int
	t0       sim.Time
}

func (x *stepTransfer) step(p *sim.Proc) {
	local := x.src == x.dst
	switch {
	case x.stage == 0 && local:
		x.src.LocalCopyThen(p, x.size)
	case x.stage == 1 && local:
		x.src.LocalCopyDone(x.size)
		return
	case x.stage == 0:
		x.t0 = x.src.InjectThen(p, x.size)
	case x.stage == 1:
		x.src.InjectDone(x.t0, x.size)
		p.Then(x.src.fabric.Latency())
	case x.stage == 2:
		x.t0 = x.dst.EjectThen(p, x.size)
	default:
		x.dst.EjectDone(x.t0, x.size)
		return
	}
	x.stage++
}

// runTransfers runs seeded random transfers, staggered and contending, on a
// jittered four-node fabric with metrics and tracing on, as reference
// worker processes or as step processes, and renders everything they
// leave behind.
func runTransfers(t *testing.T, seed int64, steps bool) string {
	t.Helper()
	k := sim.NewKernel(seed)
	reg, tr := metrics.New(), trace.New()
	k.SetMetrics(reg)
	k.SetTracer(tr)
	cfg := testConfig(4)
	cfg.InjJitter = sim.UnitLogNormal(0.2)
	f := New(k, cfg)
	f.Node(3).SetDegraded(0.5)
	for _, nd := range f.nodes {
		for _, s := range []*sim.Station{nd.inj, nd.eje, nd.mem} {
			s.TraceTrack(tr)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i, n := 0, rng.Intn(40)+10; i < n; i++ {
		src, dst := f.Node(rng.Intn(4)), f.Node(rng.Intn(4))
		size := int64(rng.Intn(4)+1) * 100_000
		name := fmt.Sprintf("x%d", i)
		k.After(sim.Time(rng.Intn(300))*sim.Microsecond, func() {
			if steps {
				x := &stepTransfer{src: src, dst: dst, size: size}
				k.SpawnStep(name, nil, x.step)
				return
			}
			k.Spawn(name, func(p *sim.Proc) { refTransfer(p, src, dst, size) })
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "now=%d events=%d\n", k.Now(), k.EventsDispatched())
	for _, nd := range f.nodes {
		fmt.Fprintf(&b, "node%d tx=%d rx=%d copy=%d\n", nd.ID(), nd.TxBytes(), nd.RxBytes(), nd.mem.Bytes)
	}
	b.WriteString(reg.Text())
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStepFormsMatchBlocking is the NIC-level half of the step-process
// equivalence property: messages carried by step processes through
// InjectThen, EjectThen and LocalCopyThen leave the same virtual times,
// events, byte counts, metrics and trace as the reference blocking path.
func TestStepFormsMatchBlocking(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		want := runTransfers(t, seed, false)
		if got := runTransfers(t, seed, true); got != want {
			t.Fatalf("seed %d: step transfers differ from the blocking reference\nreference:\n%s\nsteps:\n%s", seed, want, got)
		}
	}
}
