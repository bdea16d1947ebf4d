package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bufpool"
)

// Ops of the shared-page model test beyond the flat model's; a share (a
// pinned read of one store, an adopting write into one) is drawn apart.
const (
	opCorrupt = numOps + iota // CorruptAt on the checksummed store
	opRelease                 // Release of one store
	numShareOps
)

// sharedRun drives two MemStores drawing from one poisoned pool, the
// first wrapped by ChecksumStore, with nOps seeded random ops, and returns
// the first op after which a store's bytes or Written set differ from its
// unshared flat model. A share pins a range of one store, may let another
// op land on that store, and then writes the pinned snapshot into either
// store (the same one included), so pages end up held by both stores and
// the pins.
func sharedRun(seed int64, nOps int) error {
	defer bufpool.SetPoison(bufpool.SetPoison(true))
	p := bufpool.New()
	stores := [2]Store{PooledMemChecksummed(p)(), PooledMem(p)()}
	models := [2]*flatModel{newFlatModel(), newFlatModel()}
	r := rand.New(rand.NewSource(seed))
	span := func() (off, n int64) {
		if r.Intn(2) == 0 { // whole pages, so writes adopt
			off = r.Int63n(modelUniverse/pageSize+1) * pageSize
			return off, min((r.Int63n(3)+1)*pageSize, modelUniverse-off)
		}
		off = r.Int63n(modelUniverse)
		return off, min(r.Int63n(2*pageSize)+1, modelUniverse-off)
	}
	// mutate runs one op other than a share on store i.
	mutate := func(i int) (string, error) {
		s, f := stores[i], models[i]
		off, n := span()
		switch kind := r.Intn(numShareOps); kind {
		case opWrite, opNilWrite, opTruncate, opRead:
			return fmt.Sprintf("kind %d on store %d at %d+%d", kind, i, off, n), f.apply(s, kind, off, n, byte(r.Intn(256)))
		case opCorrupt:
			stores[0].(Integrity).CorruptAt(off, n)
			c := models[0]
			for b := off; b < off+n; b++ {
				c.data[b] ^= 0xFF
				c.touched[b] = true
			}
			c.size = max(c.size, off+n)
			return fmt.Sprintf("CorruptAt(%d, %d)", off, n), nil
		default:
			s.(Releaser).Release()
			models[i] = newFlatModel()
			return fmt.Sprintf("Release of store %d", i), nil
		}
	}
	for op := 0; op < nOps; op++ {
		what := ""
		var err error
		if r.Intn(3) == 0 {
			from, to := r.Intn(2), r.Intn(2)
			off, n := span()
			var pins Pages
			stores[from].ReadAt(&pins, off, n)
			snap := append([]byte(nil), models[from].data[off:off+n]...)
			what = fmt.Sprintf("share %d+%d from store %d to store %d", off, n, from, to)
			if r.Intn(2) == 0 {
				var m string
				m, err = mutate(from)
				what += " after " + m
			}
			stores[to].WriteAt(&pins, off, n)
			pins.Release()
			f := models[to]
			copy(f.data[off:], snap)
			for b := off; b < off+n; b++ {
				f.touched[b] = true
			}
			f.size = max(f.size, off+n)
		} else {
			what, err = mutate(r.Intn(2))
		}
		for i := range stores {
			if err == nil {
				err = models[i].check(stores[i])
			}
		}
		if err != nil {
			return fmt.Errorf("seed %d op %d (%s): %w", seed, op, what, err)
		}
	}
	return nil
}

// Property: two stores that share pages through pinned reads and adopting
// writes each keep the bytes and Written set of an unshared flat model,
// under random writes, clears, truncates, corruption and releases, with
// the pool poisoning every page handed back while still in use.
func TestSharedPagesMatchFlatModel(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6 // the race pass
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if err := sharedRun(seed, 50); err != nil {
			t.Fatal(err)
		}
	}
}

// Sabotage: with the copy before a write into a shared page skipped, the
// write leaks into the other holders' bytes, and the model test must
// catch it.
func TestSharedPagesModelCatchesSkippedCopy(t *testing.T) {
	skipCopyOnWrite = true
	defer func() { skipCopyOnWrite = false }()
	for seed := int64(1); seed <= 24; seed++ {
		if err := sharedRun(seed, 50); err != nil {
			t.Logf("caught: %v", err)
			return
		}
	}
	t.Fatal("the model test passed with copy-on-write skipped")
}

// TestPagesTakesOnlyPins checks that Pages refuses bytes: a store without
// pages, which would hand it bytes to copy, panics instead of losing them.
func TestPagesTakesOnlyPins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a NullStore read into Pages did not panic")
		}
	}()
	NewNull().ReadAt(&Pages{}, 0, 1)
}
