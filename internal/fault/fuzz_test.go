package fault

import (
	"strings"
	"testing"
)

// FuzzParse hammers the schedule grammar. Parse must never panic, and any
// spec it accepts must yield a well-formed schedule: known kinds, factors
// in (0,1], non-negative times and ordered windows.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"fail-device,node=0,at=5s",
		"device-enospc,node=1,from=1s,to=3s",
		"fail-target,target=2,from=2s,to=8s",
		"degrade-target,target=1,factor=0.2,from=2s,to=8s",
		"degrade-link,node=0,factor=0.5,at=500ms",
		"fail-device,node=0,at=5s;degrade-link,node=3,factor=0.9,at=1ms",
		"; ;fail-device,node=0,at=0s; ",
		"degrade-target,target=0,factor=1.0,at=1s",
		"fail-device,node=0,at=5s,from=1s",
		"fail-device,node=-1,at=5s",
		"fail-device,node=0,at=-5s",
		"fail-target,target=0,from=9s,to=2s",
		"bogus-kind,node=0,at=1s",
		"fail-device,nodeat5s",
		"fail-device,node=0,at=9223372036854ms",
		"torn-write,node=0,at=5s",
		"bit-rot,node=1,rate=0.1,at=6s",
		"torn-write,node=0,at=5s,from=1s",
		"fail-device,node=0,from=1s",
		"crash-node,node=0,from=1s",
		"bit-rot,node=1,factor=0.1,at=6s",
		"bit-rot,node=1,rate=1.5,at=6s",
		",,,",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned both a schedule and error %v", spec, err)
			}
			return
		}
		faults := s.Faults
		if len(faults) == 0 {
			t.Fatalf("Parse(%q) accepted an empty schedule", spec)
		}
		for _, ft := range faults {
			switch ft.Kind {
			case FailDevice, DeviceENOSPC, FailTarget, DegradeTarget, DegradeLink,
				CrashNode, LossyLink, DupLink, Partition, TornWrite, BitRot:
			default:
				t.Fatalf("Parse(%q) produced unknown kind %q", spec, ft.Kind)
			}
			if ft.Factor <= 0 || ft.Factor > 1 {
				t.Fatalf("Parse(%q) produced factor %v outside (0,1]", spec, ft.Factor)
			}
			if ft.Kind == BitRot && ft.Factor >= 1 {
				t.Fatalf("Parse(%q) produced bit-rot rate %v outside (0,1)", spec, ft.Factor)
			}
			if (ft.Kind == TornWrite || ft.Kind == BitRot) && ft.To != 0 {
				t.Fatalf("Parse(%q) produced a reverting corruption %+v", spec, ft)
			}
			if ft.Node < 0 || ft.Target < 0 {
				t.Fatalf("Parse(%q) produced negative location %+v", spec, ft)
			}
			if ft.From < 0 {
				t.Fatalf("Parse(%q) produced negative start %v", spec, ft.From)
			}
			if ft.To != 0 && ft.To <= ft.From {
				t.Fatalf("Parse(%q) produced inverted window [%v,%v)", spec, ft.From, ft.To)
			}
			if strings.TrimSpace(ft.String()) == "" {
				t.Fatalf("Parse(%q): fault renders empty", spec)
			}
		}
		// Parsing is a pure function of the spec.
		again, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q) not deterministic: second call failed: %v", spec, err)
		}
		if len(again.Faults) != len(faults) {
			t.Fatalf("Parse(%q) not deterministic: %d vs %d faults", spec, len(faults), len(again.Faults))
		}
	})
}
