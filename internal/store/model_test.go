package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/extent"
)

// modelUniverse spans a little over four pages and ends off a page
// boundary, so random ops cross pages, start and end mid-page and reach
// the partial last page.
const modelUniverse = 4*pageSize + pageSize/2 + 3

// Op kinds shared by the property test and FuzzMemStore.
const (
	opWrite = iota
	opNilWrite
	opTruncate
	opRead
	numOps
)

// flatModel is the reference for MemStore: one byte per offset of the
// universe (zero where never written or cleared), a touched bitmap that
// Written must equal, and the logical size.
type flatModel struct {
	data    []byte
	touched []bool
	size    int64
}

func newFlatModel() *flatModel {
	return &flatModel{data: make([]byte, modelUniverse), touched: make([]bool, modelUniverse)}
}

// apply runs one op against both the store and the model and reports the
// first disagreement. off must lie within the universe for writes and
// truncates, which ignore n; writes are clipped to the universe, and reads
// may run past it.
func (f *flatModel) apply(m Store, kind int, off, n int64, fill byte) error {
	switch kind {
	case opWrite, opNilWrite:
		n = min(n, modelUniverse-off)
		var data []byte
		if kind == opWrite {
			data = make([]byte, n)
			for i := range data {
				data[i] = fill + byte(i)
			}
		}
		m.WriteAt(Bytes(data, off), off, n)
		if n > 0 {
			for i := int64(0); i < n; i++ {
				f.data[off+i] = 0
				if data != nil {
					f.data[off+i] = data[i]
				}
				f.touched[off+i] = true
			}
			f.size = max(f.size, off+n)
		}
	case opTruncate:
		m.Truncate(off)
		if off < f.size {
			clear(f.data[off:])
			clear(f.touched[off:])
		}
		f.size = off
	case opRead:
		got := make([]byte, n)
		for i := range got {
			got[i] = 0xA5 // ReadAt must overwrite every byte
		}
		m.ReadAt(Bytes(got, off), off, int64(len(got)))
		for i := range got {
			want := byte(0)
			if b := off + int64(i); b < modelUniverse {
				want = f.data[b]
			}
			if got[i] != want {
				return fmt.Errorf("ReadAt(%d, len %d): byte %d = %d, want %d", off, n, off+int64(i), got[i], want)
			}
		}
	}
	if m.Size() != f.size {
		return fmt.Errorf("Size() = %d, want %d", m.Size(), f.size)
	}
	return nil
}

// check compares the whole store with the model: every byte of the
// universe, a read straddling its end, and Written against the touched
// bitmap.
func (f *flatModel) check(m Store) error {
	got := make([]byte, modelUniverse+pageSize)
	m.ReadAt(Bytes(got, 0), 0, int64(len(got)))
	if i := slices.IndexFunc(got[modelUniverse:], func(b byte) bool { return b != 0 }); i >= 0 {
		return fmt.Errorf("byte %d past the universe reads %d", modelUniverse+int64(i), got[modelUniverse+int64(i)])
	}
	if !bytes.Equal(got[:modelUniverse], f.data) {
		return fmt.Errorf("content differs from the flat model")
	}
	if err := m.Written().Validate(); err != nil {
		return err
	}
	var want []extent.Extent
	for b := int64(0); b < modelUniverse; b++ {
		if !f.touched[b] {
			continue
		}
		if k := len(want) - 1; k >= 0 && want[k].End() == b {
			want[k].Len++
		} else {
			want = append(want, extent.Extent{Off: b, Len: 1})
		}
	}
	if w := m.Written().Extents(); !slices.Equal(w, want) {
		return fmt.Errorf("Written() = %v, want %v", w, want)
	}
	return nil
}

// Property: across page boundaries, MemStore matches the flat model under
// random writes, nil-data writes, shrinking and growing truncates, and
// reads at random offsets and lengths, including past Size(); its Written
// set matches the bytes ever touched.
func TestMemStoreMatchesFlatModel(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		r := rand.New(rand.NewSource(seed))
		m, model := NewMem(), newFlatModel()
		for op := 0; op < int(nOps%40)+5; op++ {
			kind := r.Intn(numOps)
			off := r.Int63n(modelUniverse + 1)
			n := r.Int63n(2*pageSize + 1)
			if r.Intn(2) == 0 {
				n = r.Int63n(64) // small ops, mostly inside one page
			}
			if kind == opRead {
				off = r.Int63n(modelUniverse + pageSize)
			}
			if err := model.apply(m, kind, off, n, byte(r.Intn(256))); err != nil {
				t.Logf("seed %d op %d (kind %d): %v", seed, op, kind, err)
				return false
			}
			if kind == opTruncate {
				if err := model.check(m); err != nil {
					t.Logf("seed %d after Truncate(%d): %v", seed, off, err)
					return false
				}
			}
		}
		if err := model.check(m); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// fuzzOp encodes one FuzzMemStore op.
func fuzzOp(kind int, off, n int64, fill byte) []byte {
	return []byte{byte(kind), byte(off), byte(off >> 8), byte(off >> 16), byte(n), byte(n >> 8), fill}
}

// FuzzMemStore decodes tape as a sequence of 7-byte ops — kind, a 24-bit
// offset, a 16-bit length, a fill byte — and runs them against MemStore
// and the flat model. Offsets are folded into the universe so every tape
// is valid.
func FuzzMemStore(f *testing.F) {
	const p = pageSize
	f.Add(slices.Concat(fuzzOp(opWrite, p-256, 4096, 7), fuzzOp(opRead, p-512, 8192, 0)))
	f.Add(slices.Concat(fuzzOp(opWrite, p-4096, 0xffff, 1), fuzzOp(opTruncate, p+291, 0, 0),
		fuzzOp(opRead, p-4096, 0xffff, 0)))
	f.Add(slices.Concat(fuzzOp(opWrite, p/2, p/2+4096, 3), fuzzOp(opNilWrite, p-256, 8192, 0),
		fuzzOp(opRead, p/2, 0xffff, 0)))
	f.Fuzz(func(t *testing.T, tape []byte) {
		m, model := NewMem(), newFlatModel()
		for i := 0; i+7 <= len(tape); i += 7 {
			op := tape[i : i+7]
			kind := int(op[0]) % numOps
			off := (int64(op[1]) | int64(op[2])<<8 | int64(op[3])<<16) % (modelUniverse + 1)
			n := int64(op[4]) | int64(op[5])<<8
			if err := model.apply(m, kind, off, n, op[6]); err != nil {
				t.Fatalf("op %d: %v", i/7, err)
			}
		}
		if err := model.check(m); err != nil {
			t.Fatal(err)
		}
	})
}
