package store

import (
	"bytes"
	"testing"
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMem()
	m.WriteAt(Bytes([]byte("hello"), 10), 10, 5)
	buf := make([]byte, 5)
	m.ReadAt(Bytes(buf, 10), 10, int64(len(buf)))
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
	if m.Size() != 15 {
		t.Fatalf("size = %d", m.Size())
	}
}

func TestMemStoreHolesReadZero(t *testing.T) {
	m := NewMem()
	m.WriteAt(Bytes([]byte{1, 2}, 0), 0, 2)
	m.WriteAt(Bytes([]byte{9}, 10), 10, 1)
	buf := make([]byte, 11)
	m.ReadAt(Bytes(buf, 0), 0, int64(len(buf)))
	want := []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 9}
	if !bytes.Equal(buf, want) {
		t.Fatalf("read %v, want %v", buf, want)
	}
}

func TestMemStoreOverwrite(t *testing.T) {
	m := NewMem()
	m.WriteAt(Bytes([]byte("aaaaaa"), 0), 0, 6)
	m.WriteAt(Bytes([]byte("BB"), 2), 2, 2)
	buf := make([]byte, 6)
	m.ReadAt(Bytes(buf, 0), 0, int64(len(buf)))
	if string(buf) != "aaBBaa" {
		t.Fatalf("read %q", buf)
	}
}

func TestMemStoreNilDataWritesZeros(t *testing.T) {
	m := NewMem()
	m.WriteAt(Bytes([]byte{7, 7, 7}, 0), 0, 3)
	m.WriteAt(Bytes(nil, 1), 1, 1) // a nil buffer is a nil payload, not an empty one
	buf := make([]byte, 3)
	m.ReadAt(Bytes(buf, 0), 0, int64(len(buf)))
	if !bytes.Equal(buf, []byte{7, 0, 7}) {
		t.Fatalf("read %v", buf)
	}
}

func TestMemStoreTruncate(t *testing.T) {
	m := NewMem()
	m.WriteAt(Bytes([]byte("abcdef"), 0), 0, 6)
	m.Truncate(3)
	if m.Size() != 3 {
		t.Fatalf("size = %d", m.Size())
	}
	buf := make([]byte, 6)
	m.ReadAt(Bytes(buf, 0), 0, int64(len(buf)))
	if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0}) {
		t.Fatalf("read %v", buf)
	}
	m.Truncate(100)
	if m.Size() != 100 {
		t.Fatal("growing truncate failed")
	}
}

func TestNullStoreTracksExtentsOnly(t *testing.T) {
	n := NewNull()
	n.WriteAt(nil, 100, 50)
	n.WriteAt(nil, 150, 50)
	if n.Size() != 200 {
		t.Fatalf("size = %d", n.Size())
	}
	w := n.Written()
	if w.Len() != 1 || w.TotalBytes() != 100 {
		t.Fatalf("written = %v", w.Extents())
	}
	buf := []byte{1, 2, 3}
	n.ReadAt(Bytes(buf, 100), 100, int64(len(buf)))
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("null store must read zeros")
	}
}

func TestNullStoreTruncateShrinksExtents(t *testing.T) {
	n := NewNull()
	n.WriteAt(nil, 0, 100)
	n.Truncate(40)
	if n.Size() != 40 || n.Written().TotalBytes() != 40 {
		t.Fatalf("size=%d written=%d", n.Size(), n.Written().TotalBytes())
	}
}

func TestWriteSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMem().WriteAt(Bytes([]byte{1}, 0), 0, 2)
}
