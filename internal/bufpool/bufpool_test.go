package bufpool

import (
	"strings"
	"testing"
)

func TestGetRoundsUpAndReuses(t *testing.T) {
	p := New()
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100 and 128", len(b), cap(b))
	}
	p.Put(b)
	c := p.Get(65)
	if &c[:1][0] != &b[:1][0] || len(c) != 65 {
		t.Fatalf("Get(65) after Put of a 128-byte buffer did not reuse it")
	}
	if d := p.Get(129); cap(d) != 256 {
		t.Fatalf("Get(129): cap %d, want 256", cap(d))
	}
	if e := p.Get(1); cap(e) != 1<<minShift {
		t.Fatalf("Get(1): cap %d, want the smallest class %d", cap(e), 1<<minShift)
	}
}

func TestPutIgnoresForeignBuffers(t *testing.T) {
	p := New()
	p.Put(make([]byte, 100)) // capacity is no size class
	p.Put(nil)
	for c := range p.free {
		if len(p.free[c]) != 0 {
			t.Fatalf("class %d holds %d buffers after foreign Puts", c, len(p.free[c]))
		}
	}
	if b := p.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) returned %d bytes", len(b))
	}
}

func TestNilPoolAllocates(t *testing.T) {
	var p *Pool
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("nil pool Get(100) returned %d bytes", len(b))
	}
	p.Put(b)
}

// mustPanic runs f and returns its panic message, failing when it does
// not panic.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		f()
		t.Fatal("no panic")
	}()
	return msg
}

func TestPoisonCatchesMisuse(t *testing.T) {
	defer SetPoison(SetPoison(true))
	p := New()
	if !p.poison {
		t.Fatal("pool created under SetPoison(true) does not poison")
	}
	b := p.Get(64)
	for i := range b {
		b[i] = byte(i)
	}
	p.Put(b)
	if !poisoned(b) {
		t.Fatal("a released buffer does not read as poisoned")
	}
	b[3] = 0 // a write after release
	if msg := mustPanic(t, func() { p.Get(64) }); !strings.Contains(msg, "written after its release") {
		t.Fatalf("write after release: panic %q", msg)
	}
	if poisoned(nil) || poisoned([]byte{1, 2, 3}) {
		t.Fatal("poisoned reports true for live bytes")
	}
	SetPoison(false)
	if New().poison {
		t.Fatal("pool created under SetPoison(false) poisons")
	}
}
