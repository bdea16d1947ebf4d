package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var busySink uint64

// busyWork spins for d so the CPU profiler samples it.
func busyWork(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	busySink = x
}

func TestParseProfileOfBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	busyWork(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sampleTypes) != 2 || p.sampleTypes[1] != "cpu" {
		t.Fatalf("sample types %q, want [samples cpu]", p.sampleTypes)
	}
	var busy, total int64
	for _, s := range p.samples {
		total += s.values[1]
		for _, fn := range s.funcs {
			if strings.HasSuffix(fn, ".busyWork") {
				busy += s.values[1]
				break
			}
		}
	}
	if total == 0 || float64(busy) < 0.5*float64(total) {
		t.Fatalf("busyWork holds %d of %d sampled ns, want most of them", busy, total)
	}
	shares := layerShares(p)
	if shares[layerBench] < 0.5 {
		t.Errorf("bench layer share %.2f, want the busy function's time there", shares[layerBench])
	}
	if sum := sumShares(shares); math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func sumShares(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.mallocgc", "fmt.Sprintf", "repro/internal/mpi.(*World).NewSharedComm", "repro/internal/harness.Run"}, "mpi"},
		{[]string{"repro/internal/extent.(*Set).Add", "repro/internal/adio.(*File).write"}, "extent"},
		{[]string{"runtime.mapaccess2", "repro/internal/sim.(*Kernel).Run.func1"}, "sim"},
		{[]string{"repro/internal/workloads.CollPerf.Segments[...]"}, "workloads"},
		{[]string{"repro/internal/h5lite.Create", "repro/internal/harness.Run"}, layerOther},
		{[]string{"bytes.Equal", "main.readbackRep.func1", "repro/internal/sim.(*Kernel).start"}, layerBench},
		{[]string{"repro/benchmark.busyWork"}, layerBench},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, layerRuntime},
		{[]string{"runtime.main"}, layerRuntime},
		{nil, layerRuntime},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// Protobuf encoding helpers for hand-built profiles.
func pbUint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num<<3))
	return binary.AppendUvarint(b, v)
}

func pbMsg(b []byte, num int, payload []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num<<3|2))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(b []byte, num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbMsg(b, num, p)
}

func TestParseProfileEncodings(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", "fmt.Sprintf", "repro/internal/mpi.(*World).NewSharedComm",
		"runtime.gcBgMarkWorker", "repro/internal/extent.(*Set).Add", "repro/internal/adio.(*File).write"}
	var b []byte
	b = pbMsg(b, 1, pbUint(pbUint(nil, 1, 1), 2, 2))
	b = pbMsg(b, 1, pbUint(pbUint(nil, 1, 3), 2, 4))
	// Samples come before the locations, functions and strings they name.
	b = pbMsg(b, 2, pbPacked(pbPacked(nil, 1, 1, 2, 3), 2, 1, 30))  // packed
	b = pbMsg(b, 2, pbUint(pbUint(pbUint(nil, 1, 4), 2, 1), 2, 10)) // one varint per value
	b = pbMsg(b, 2, pbPacked(pbUint(nil, 1, 5), 2, 1, 60))
	for id := uint64(1); id <= 4; id++ {
		b = pbMsg(b, 4, pbMsg(pbUint(nil, 1, id), 4, pbUint(nil, 1, id)))
	}
	// Location 5: extent.(*Set).Add inlined into adio.(*File).write.
	b = pbMsg(b, 4, pbMsg(pbMsg(pbUint(nil, 1, 5), 4, pbUint(nil, 1, 5)), 4, pbUint(nil, 1, 6)))
	for id := uint64(1); id <= 6; id++ {
		b = pbMsg(b, 5, pbUint(pbUint(nil, 1, id), 2, id+4))
	}
	for _, s := range strs {
		b = pbMsg(b, 6, []byte(s))
	}

	p, err := parseProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 3 || strings.Join(p.samples[2].funcs, ",") != strs[9]+","+strs[10] {
		t.Fatalf("decoded samples %+v", p.samples)
	}
	got := layerShares(p)
	for layer, want := range map[string]float64{"mpi": 0.3, layerRuntime: 0.1, "extent": 0.6, "adio": 0} {
		if math.Abs(got[layer]-want) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, got[layer], want)
		}
	}
	if len(got) != len(allLayers()) {
		t.Errorf("%d layers reported, want all %d", len(got), len(allLayers()))
	}

	for _, bad := range [][]byte{{0x0a, 0xff}, {0x12, 0x02, 0x0a}, {0x1f, 0x8b, 0x00}, pbUint(nil, 6, 1)} {
		if _, err := parseProfile(bad); err == nil {
			t.Errorf("parseProfile(%x) succeeded, want an error", bad)
		}
	}
}
