package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/nvm"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/store"
)

// testTargets builds a minimal machine: one SSD, a 4-target PFS, a 2-node
// fabric.
func testTargets(k *sim.Kernel) Targets {
	dev := nvm.NewDevice(k, "ssd", "ssd0", nvm.DeviceConfig{
		WriteRate: 100 * sim.MBps, ReadRate: 100 * sim.MBps, Capacity: 1 << 30,
	})
	cfg := pfs.DefaultConfig()
	cfg.TargetJitter = nil
	fab := netsim.New(k, netsim.Config{
		Nodes: 2, InjRate: sim.GBps, EjeRate: sim.GBps,
		Latency: sim.Microsecond, MemRate: 10 * sim.GBps,
	})
	return Targets{
		Devices: func(n int) *nvm.Device {
			if n != 0 {
				return nil
			}
			return dev
		},
		PFS: pfs.New(k, cfg, store.NewNull),
		Net: fab,
	}
}

func TestParseAllKinds(t *testing.T) {
	s, err := Parse("fail-device,node=0,at=5s;" +
		"device-enospc,node=1,from=1s,to=3s;" +
		"fail-target,target=2,from=2s,to=8s;" +
		"degrade-target,target=1,factor=0.2,from=2s,to=8s;" +
		"degrade-link,node=0,factor=0.5,at=500ms")
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Faults
	if len(fs) != 5 {
		t.Fatalf("parsed %d faults, want 5", len(fs))
	}
	if fs[0].Kind != FailDevice || fs[0].From != 5*sim.Second || fs[0].To != 0 {
		t.Errorf("fault 0 = %+v", fs[0])
	}
	if fs[1].Kind != DeviceENOSPC || fs[1].Node != 1 || fs[1].From != sim.Second || fs[1].To != 3*sim.Second {
		t.Errorf("fault 1 = %+v", fs[1])
	}
	if fs[3].Kind != DegradeTarget || fs[3].Target != 1 || fs[3].Factor != 0.2 {
		t.Errorf("fault 3 = %+v", fs[3])
	}
	if fs[4].Kind != DegradeLink || fs[4].From != 500*sim.Millisecond {
		t.Errorf("fault 4 = %+v", fs[4])
	}
	if got := fs[3].String(); got != "degrade-target(t1,f=0.20)@2.000s-8.000s" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                                         // empty schedule
		"melt-cpu,node=0,at=1s",                    // unknown kind
		"fail-device,node0,at=1s",                  // malformed field
		"fail-device,node=-1,at=1s",                // bad node
		"fail-target,target=x,at=1s",               // bad target
		"degrade-target,target=0,factor=0,at=1s",   // factor out of range
		"degrade-target,target=0,factor=1.5,at=1s", // factor out of range
		"degrade-target,target=0,at=1s",            // degrade without factor
		"fail-device,node=0,at=1s,to=2s",           // at mixed with to
		"fail-device,node=0,from=2s,to=1s",         // to <= from
		"fail-device,node=0,at=zzz",                // bad duration
		"fail-device,node=0,huh=1",                 // unknown field
		"fail-device,node=0,from=1s",               // from= without to=
		"crash-node,node=0,from=1s",                // from= without to=
		"fail-device,node=0,factor=0.5,at=1s",      // factor= on a kind without one
		"bit-rot,node=0,rate=0.1,factor=0.5,at=1s", // factor= must not override rate=
		"degrade-link,node=0,factor=NaN,at=1s",     // NaN factor
		"bit-rot,node=0,rate=NaN,at=1s",            // NaN rate
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) must fail", spec)
		}
	}
}

// TestParseEveryKind pins the Fault value Parse yields for one clause of
// every kind: the spec grammar maps onto the Fault fields and nothing else.
func TestParseEveryKind(t *testing.T) {
	s := sim.Second
	cases := []struct {
		spec string
		want Fault
	}{
		{"fail-device,node=0,at=5s", Fault{Kind: FailDevice, Factor: 1, From: 5 * s}},
		{"device-enospc,node=1,from=1s,to=3s", Fault{Kind: DeviceENOSPC, Node: 1, Factor: 1, From: s, To: 3 * s}},
		{"fail-target,target=2,from=2s,to=8s", Fault{Kind: FailTarget, Target: 2, Factor: 1, From: 2 * s, To: 8 * s}},
		{"degrade-target,target=1,factor=0.2,from=2s,to=8s", Fault{Kind: DegradeTarget, Target: 1, Factor: 0.2, From: 2 * s, To: 8 * s}},
		{"degrade-link,node=0,factor=0.5,at=500ms", Fault{Kind: DegradeLink, Factor: 0.5, From: 500 * sim.Millisecond}},
		{"crash-node,node=1,at=4s", Fault{Kind: CrashNode, Node: 1, Factor: 1, From: 4 * s}},
		{"lossy-link,node=0,factor=0.1,from=1s,to=4s", Fault{Kind: LossyLink, Factor: 0.1, From: s, To: 4 * s}},
		{"dup-link,node=1,factor=0.05,at=2s", Fault{Kind: DupLink, Node: 1, Factor: 0.05, From: 2 * s}},
		{"partition,nodes=0:2,from=3s,to=6s", Fault{Kind: Partition, Nodes: []int{0, 2}, Factor: 1, From: 3 * s, To: 6 * s}},
		{"torn-write,node=0,at=5s", Fault{Kind: TornWrite, Factor: 1, From: 5 * s}},
		{"bit-rot,node=1,rate=0.1,at=5s", Fault{Kind: BitRot, Node: 1, Factor: 0.1, From: 5 * s}},
	}
	kinds := map[Kind]bool{}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if want := []Fault{tc.want}; !reflect.DeepEqual(got.Faults, want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got.Faults, want)
		}
		kinds[tc.want.Kind] = true
	}
	if len(kinds) != 11 {
		t.Errorf("table covers %d kinds, want all 11", len(kinds))
	}
	if (&Schedule{}).Empty() == false || (&Schedule{Faults: []Fault{cases[0].want}}).Empty() {
		t.Error("Empty() wrong")
	}
}

func TestArmAppliesAndClearsAtExactTimes(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k)
	ms := sim.Millisecond
	s := &Schedule{Faults: []Fault{
		{Kind: FailDevice, Node: 0, From: 1 * ms, To: 3 * ms},
		{Kind: DegradeLink, Node: 0, Factor: 0.5, From: 1 * ms, To: 3 * ms},
		{Kind: DegradeTarget, Target: 1, Factor: 0.25, From: 2 * ms, To: 4 * ms},
		{Kind: FailTarget, Target: 2, From: 2 * ms, To: 4 * ms},
		{Kind: DeviceENOSPC, Node: 0, From: 5 * ms},
	}}
	inj, err := Arm(k, s, tg)
	if err != nil {
		t.Fatal(err)
	}
	type sample struct {
		failed, noSpace, tgtDown bool
		tgtSpeed, link           float64
		active                   int
	}
	probe := map[sim.Time]*sample{}
	k.Spawn("probe", func(p *sim.Proc) {
		for _, at := range []sim.Time{500 * sim.Microsecond, 1500 * sim.Microsecond,
			2500 * sim.Microsecond, 3500 * sim.Microsecond, 6 * sim.Millisecond} {
			p.Sleep(at - p.Now())
			probe[at] = &sample{
				failed:   tg.Devices(0).Failed(),
				noSpace:  tg.Devices(0).NoSpace(),
				tgtDown:  tg.PFS.TargetDown(2),
				tgtSpeed: tg.PFS.TargetSpeed(1),
				link:     tg.Net.Node(0).Degraded(),
				active:   inj.Active(),
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for at, want := range map[sim.Time]sample{
		500 * sim.Microsecond:  {failed: false, tgtSpeed: 1, link: 1, active: 0},
		1500 * sim.Microsecond: {failed: true, tgtSpeed: 1, link: 0.5, active: 2},
		2500 * sim.Microsecond: {failed: true, tgtDown: true, tgtSpeed: 0.25, link: 0.5, active: 4},
		3500 * sim.Microsecond: {failed: false, tgtDown: true, tgtSpeed: 0.25, link: 1, active: 2},
		6 * sim.Millisecond:    {noSpace: true, tgtSpeed: 1, link: 1, active: 1},
	} {
		got := probe[at]
		if got == nil {
			t.Fatalf("no sample at %v", at)
		}
		if got.failed != want.failed || got.noSpace != want.noSpace ||
			got.tgtDown != want.tgtDown || got.tgtSpeed != want.tgtSpeed ||
			got.link != want.link || got.active != want.active {
			t.Errorf("at %v: got %+v, want %+v", at, *got, want)
		}
	}
	for i, st := range inj.Stats() {
		if !st.Applied {
			t.Errorf("fault %d never applied", i)
		}
	}
}

func TestArmValidatesEagerly(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k)
	for _, f := range []Fault{
		{Kind: FailDevice, Node: 7},                // node without device
		{Kind: FailTarget, Target: 99},             // target out of range
		{Kind: DegradeLink, Node: 99, Factor: 0.5}, // node out of range
		{Kind: DegradeLink, Node: -1, Factor: 0.5}, // negative node
		{Kind: DegradeTarget, Target: 0},           // bad factor
	} {
		if _, err := Arm(k, &Schedule{Faults: []Fault{f}}, tg); err == nil {
			t.Errorf("Arm(%v) must fail", f)
		}
	}
	if _, err := Arm(k, nil, tg); err != nil {
		t.Errorf("nil schedule must arm as no-op: %v", err)
	}
}

func TestValidateRejectsBadSchedules(t *testing.T) {
	sec := sim.Second
	cases := []struct {
		name   string
		faults []Fault
		want   string // substring the error must contain
	}{
		{
			name:   "negative start",
			faults: []Fault{{Kind: FailDevice, Node: 0, From: -sec}},
			want:   "action 0",
		},
		{
			name:   "negative end",
			faults: []Fault{{Kind: FailDevice, Node: 0, From: sec, To: -sec}},
			want:   "action 0",
		},
		{
			name:   "window ends before start",
			faults: []Fault{{Kind: FailTarget, Target: 1, From: 2 * sec, To: sec}},
			want:   "action 0",
		},
		{
			name: "overlapping windows same kind same node",
			faults: []Fault{
				{Kind: FailDevice, Node: 0, From: 1 * sec, To: 5 * sec},
				{Kind: FailDevice, Node: 0, From: 3 * sec, To: 7 * sec},
			},
			want: "action 0 (fail-device(n0)@1.000s-5.000s) overlaps action 1",
		},
		{
			name: "window overlapping permanent fault",
			faults: []Fault{
				{Kind: DeviceENOSPC, Node: 2, From: 1 * sec},
				{Kind: DeviceENOSPC, Node: 2, From: 10 * sec, To: 11 * sec},
			},
			want: "overlaps action 1",
		},
		{
			name: "two permanent faults same location",
			faults: []Fault{
				{Kind: FailTarget, Target: 3, From: 1 * sec},
				{Kind: FailTarget, Target: 3, From: 9 * sec},
			},
			want: "overlaps",
		},
		{
			name: "double crash same node",
			faults: []Fault{
				{Kind: CrashNode, Node: 0, From: 1 * sec},
				{Kind: CrashNode, Node: 0, From: 2 * sec},
			},
			want: "overlaps",
		},
		{
			name:   "crash with revert window",
			faults: []Fault{{Kind: CrashNode, Node: 0, From: 1 * sec, To: 2 * sec}},
			want:   "cannot revert",
		},
		{
			name:   "bad degrade factor",
			faults: []Fault{{Kind: DegradeLink, Node: 0, Factor: 1.5}},
			want:   "factor",
		},
		{
			name:   "NaN degrade factor",
			faults: []Fault{{Kind: DegradeTarget, Target: 0, Factor: math.NaN()}},
			want:   "factor NaN outside (0,1]",
		},
		// A negative node or target would index the hardware out of range
		// when the fault fires, so Validate rejects it before Arm.
		{
			name:   "degrade-link on a negative node",
			faults: []Fault{{Kind: DegradeLink, Node: -1, Factor: 0.5}},
			want:   "negative node -1",
		},
		{
			name:   "lossy-link on a negative node",
			faults: []Fault{{Kind: LossyLink, Node: -1, Factor: 0.1}},
			want:   "negative node -1",
		},
		{
			name:   "fail-target on a negative target",
			faults: []Fault{{Kind: FailTarget, Target: -1}},
			want:   "negative target -1",
		},
		{
			name:   "degrade-target on a negative target",
			faults: []Fault{{Kind: DegradeTarget, Target: -1, Factor: 0.5}},
			want:   "negative target -1",
		},
	}
	for _, tc := range cases {
		err := (&Schedule{Faults: tc.faults}).Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %q, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateAcceptsDisjointAndCrossKind(t *testing.T) {
	sec := sim.Second
	s := &Schedule{Faults: []Fault{
		{Kind: FailDevice, Node: 0, From: 1 * sec, To: 2 * sec},
		{Kind: FailDevice, Node: 0, From: 2 * sec, To: 3 * sec},   // back-to-back, no overlap
		{Kind: DeviceENOSPC, Node: 0, From: 1 * sec, To: 5 * sec}, // same node, other kind
		{Kind: FailDevice, Node: 1, From: 1 * sec, To: 5 * sec},   // same kind, other node
		{Kind: FailDevice, Node: 0, From: 10 * sec},               // permanent after windows end
		{Kind: CrashNode, Node: 1, From: 3 * sec},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestParseCrashNode(t *testing.T) {
	s, err := Parse("crash-node,node=1,at=4s")
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Faults
	if len(fs) != 1 || fs[0].Kind != CrashNode || fs[0].Node != 1 || fs[0].From != 4*sim.Second || fs[0].To != 0 {
		t.Fatalf("parsed %+v", fs)
	}
	if got := fs[0].String(); got != "crash-node(n1)@4.000s" {
		t.Errorf("String() = %q", got)
	}
	for _, spec := range []string{
		"crash-node,node=0,from=1s,to=2s",                 // crashes do not revert
		"crash-node,node=0,at=1s;crash-node,node=0,at=2s", // double crash
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) must fail", spec)
		}
	}
}

func TestArmCrashNodeFiresOnce(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k)
	var crashed []int
	tg.Crash = func(node int) { crashed = append(crashed, node) }
	s := &Schedule{Faults: []Fault{{Kind: CrashNode, Node: 1, From: 2 * sim.Millisecond}}}
	inj, err := Arm(k, s, tg)
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("idle", func(p *sim.Proc) { p.Sleep(10 * sim.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(crashed) != 1 || crashed[0] != 1 {
		t.Fatalf("crash calls = %v, want [1]", crashed)
	}
	if st := inj.Stats()[0]; !st.Applied || st.AppliedAt != 2*sim.Millisecond {
		t.Fatalf("stat = %+v", st)
	}
}

func TestArmCrashNodeRequiresHook(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k) // no Crash hook wired
	s := &Schedule{Faults: []Fault{{Kind: CrashNode, Node: 0, From: sim.Second}}}
	if _, err := Arm(k, s, tg); err == nil {
		t.Fatal("Arm must reject crash-node without a crash hook")
	}
}

func TestArmRejectsOverlapNamingIndex(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k)
	s := &Schedule{Faults: []Fault{
		{Kind: FailTarget, Target: 2, From: 1 * sim.Second, To: 4 * sim.Second},
		{Kind: FailTarget, Target: 2, From: 2 * sim.Second, To: 3 * sim.Second},
	}}
	_, err := Arm(k, s, tg)
	if err == nil || !strings.Contains(err.Error(), "action 0") || !strings.Contains(err.Error(), "action 1") {
		t.Fatalf("Arm error = %v, want overlap naming actions 0 and 1", err)
	}
}

func TestReportIsDeterministic(t *testing.T) {
	run := func() string {
		k := sim.NewKernel(42)
		tg := testTargets(k)
		sched, err := Parse("degrade-target,target=1,factor=0.2,from=1ms,to=3ms;fail-device,node=0,at=2ms")
		if err != nil {
			t.Fatal(err)
		}
		inj, err := Arm(k, sched, tg)
		if err != nil {
			t.Fatal(err)
		}
		k.Spawn("idle", func(p *sim.Proc) { p.Sleep(10 * sim.Millisecond) })
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return inj.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replayed report differs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "cleared@3.000ms") || !strings.Contains(a, "active since 2.000ms") {
		t.Fatalf("report missing lifecycle states:\n%s", a)
	}
}

func TestParseNetworkFaultKinds(t *testing.T) {
	s, err := Parse("lossy-link,node=0,factor=0.1,from=1s,to=4s;" +
		"dup-link,node=1,factor=0.05,at=2s;" +
		"partition,nodes=0:2,from=3s,to=6s")
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Faults
	if len(fs) != 3 {
		t.Fatalf("parsed %d faults, want 3", len(fs))
	}
	if fs[0].Kind != LossyLink || fs[0].Node != 0 || fs[0].Factor != 0.1 ||
		fs[0].From != sim.Second || fs[0].To != 4*sim.Second {
		t.Errorf("fault 0 = %+v", fs[0])
	}
	if fs[1].Kind != DupLink || fs[1].Node != 1 || fs[1].Factor != 0.05 || fs[1].To != 0 {
		t.Errorf("fault 1 = %+v", fs[1])
	}
	if fs[2].Kind != Partition || len(fs[2].Nodes) != 2 || fs[2].Nodes[0] != 0 || fs[2].Nodes[1] != 2 {
		t.Errorf("fault 2 = %+v", fs[2])
	}
	if got := fs[0].String(); got != "lossy-link(n0,f=0.10)@1.000s-4.000s" {
		t.Errorf("lossy String() = %q", got)
	}
	if got := fs[2].String(); got != "partition(n0:2)@3.000s-6.000s" {
		t.Errorf("partition String() = %q", got)
	}
}

func TestParseNetworkFaultErrors(t *testing.T) {
	for _, spec := range []string{
		"lossy-link,node=0,at=1s",                    // missing probability
		"lossy-link,node=0,factor=1,at=1s",           // probability must be < 1
		"dup-link,node=0,factor=0,at=1s",             // probability must be > 0
		"partition,from=1s,to=2s",                    // missing nodes=
		"partition,nodes=,from=1s,to=2s",             // empty nodes list
		"partition,nodes=0:x,from=1s,to=2s",          // bad node id in list
		"partition,nodes=0:-1,from=1s,to=2s",         // negative node id
		"lossy-link,node=0,nodes=1,factor=0.1,at=1s", // nodes= is partition-only
		"partition,nodes=0,at=1s",                    // permanent partition = guaranteed livelock
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) must fail", spec)
		}
	}
}

func TestValidateNetworkKinds(t *testing.T) {
	sec := sim.Second
	cases := []struct {
		name    string
		faults  []Fault
		wantErr string // substring; "" = must pass
	}{
		{
			name: "overlapping partitions rejected even on disjoint groups",
			faults: []Fault{
				{Kind: Partition, Nodes: []int{0}, From: 1 * sec, To: 5 * sec},
				{Kind: Partition, Nodes: []int{1}, From: 3 * sec, To: 8 * sec},
			},
			wantErr: "action 0",
		},
		{
			name: "sequential partitions allowed",
			faults: []Fault{
				{Kind: Partition, Nodes: []int{0}, From: 1 * sec, To: 3 * sec},
				{Kind: Partition, Nodes: []int{1}, From: 3 * sec, To: 8 * sec},
			},
		},
		{
			name:    "lossy probability 1 rejected",
			faults:  []Fault{{Kind: LossyLink, Node: 0, Factor: 1, From: sec}},
			wantErr: "probability 1 outside (0,1)",
		},
		{
			name:    "dup probability 0 rejected",
			faults:  []Fault{{Kind: DupLink, Node: 0, Factor: 0, From: sec}},
			wantErr: "probability 0 outside (0,1)",
		},
		{
			name:    "empty partition group rejected",
			faults:  []Fault{{Kind: Partition, From: 1 * sec, To: 2 * sec}},
			wantErr: "non-empty node group",
		},
		{
			name:    "negative node in group rejected",
			faults:  []Fault{{Kind: Partition, Nodes: []int{0, -3}, From: 1 * sec, To: 2 * sec}},
			wantErr: "negative node -3",
		},
		{
			name:    "permanent partition rejected",
			faults:  []Fault{{Kind: Partition, Nodes: []int{0}, From: sec}},
			wantErr: "heal window",
		},
		{
			name: "lossy and dup on the same node may overlap (different kinds)",
			faults: []Fault{
				{Kind: LossyLink, Node: 0, Factor: 0.1, From: 1 * sec, To: 5 * sec},
				{Kind: DupLink, Node: 0, Factor: 0.1, From: 1 * sec, To: 5 * sec},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := (&Schedule{Faults: tc.faults}).Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestArmNetworkFaultsAppliesAndReverts(t *testing.T) {
	k := sim.NewKernel(1)
	tg := testTargets(k)
	ms := sim.Millisecond
	s := &Schedule{Faults: []Fault{
		{Kind: LossyLink, Node: 0, Factor: 0.25, From: 1 * ms, To: 3 * ms},
		{Kind: DupLink, Node: 1, Factor: 0.1, From: 1 * ms, To: 3 * ms},
		{Kind: Partition, Nodes: []int{0}, From: 2 * ms, To: 4 * ms},
	}}
	if _, err := Arm(k, s, tg); err != nil {
		t.Fatal(err)
	}
	type sample struct {
		lossy, dup float64
		cut        bool
	}
	probe := map[sim.Time]*sample{}
	k.Spawn("probe", func(p *sim.Proc) {
		for _, at := range []sim.Time{500 * sim.Microsecond, 1500 * sim.Microsecond,
			2500 * sim.Microsecond, 3500 * sim.Microsecond, 5 * sim.Millisecond} {
			p.Sleep(at - p.Now())
			probe[at] = &sample{
				lossy: tg.Net.Node(0).Lossy(),
				dup:   tg.Net.Node(1).Dup(),
				cut:   tg.Net.Partitioned(0, 1),
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := probe[500*sim.Microsecond]; got.lossy != 0 || got.dup != 0 || got.cut {
		t.Errorf("before any window: %+v", got)
	}
	if got := probe[1500*sim.Microsecond]; got.lossy != 0.25 || got.dup != 0.1 || got.cut {
		t.Errorf("inside lossy/dup window: %+v", got)
	}
	if got := probe[2500*sim.Microsecond]; got.lossy != 0.25 || !got.cut {
		t.Errorf("inside both windows: %+v", got)
	}
	if got := probe[3500*sim.Microsecond]; got.lossy != 0 || got.dup != 0 || !got.cut {
		t.Errorf("partition-only window: %+v", got)
	}
	if got := probe[5*sim.Millisecond]; got.lossy != 0 || got.dup != 0 || got.cut {
		t.Errorf("after all windows: %+v", got)
	}
}
