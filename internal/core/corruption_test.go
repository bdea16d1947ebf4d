package core

import (
	"bytes"
	"testing"

	"repro/internal/adio"
	"repro/internal/extent"
	"repro/internal/mpi"
	"repro/internal/store"
)

func TestJournalScrubPristineIsFree(t *testing.T) {
	var j Journal
	j.Add(extent.Extent{Off: 0, Len: 4096})
	j.Add(extent.Extent{Off: 8192, Len: 4096})
	j.Remove(extent.Extent{Off: 0, Len: 4096})
	if lost := j.Scrub(); lost != nil {
		t.Fatalf("scrubbing a pristine journal lost %v, want nil", lost)
	}
	if j.Len() != 1 || j.TotalBytes() != 4096 {
		t.Fatalf("folded view reshaped by a clean scrub: %d extents / %d bytes", j.Len(), j.TotalBytes())
	}
	if j.Seq() != 3 {
		t.Fatalf("commit sequence = %d, want 3", j.Seq())
	}
}

func TestJournalTearDropsOnlyLastRecord(t *testing.T) {
	var j Journal
	a := extent.Extent{Off: 0, Len: 4096}
	b := extent.Extent{Off: 1 << 20, Len: 8192}
	j.Add(a)
	j.Add(b)
	j.Tear() // crash mid-append: b's commit CRC never landed
	lost := j.Scrub()
	if len(lost) != 1 || lost[0] != b {
		t.Fatalf("lost = %v, want [%v]", lost, b)
	}
	if !j.Covers(a) || j.Covers(b) {
		t.Fatalf("surviving prefix wrong: covers(a)=%v covers(b)=%v", j.Covers(a), j.Covers(b))
	}
	// A second scrub of the now-truncated journal is a no-op.
	if again := j.Scrub(); again != nil {
		t.Fatalf("re-scrub lost %v, want nil", again)
	}
}

// TestJournalTearCutsOnlyTheAppendInFlight checks that a torn write with
// no append since the last tear or Scrub cuts nothing: a crash can tear
// only the append it interrupts, never a record committed before it.
func TestJournalTearCutsOnlyTheAppendInFlight(t *testing.T) {
	var j Journal
	a := extent.Extent{Off: 0, Len: 4096}
	b := extent.Extent{Off: 1 << 20, Len: 8192}
	j.Add(a)
	j.Add(b)
	j.Tear()
	if lost := j.Scrub(); len(lost) != 1 || lost[0] != b {
		t.Fatalf("first Scrub lost %v, want [%v]", lost, b)
	}
	j.Tear() // a second crash, after recovery, with nothing in flight
	if lost := j.Scrub(); lost != nil {
		t.Fatalf("a tear after Scrub lost %v, want nothing", lost)
	}
	if !j.Covers(a) {
		t.Fatalf("the record committed before the crash was cut: covers(a)=false")
	}

	// A pristine Scrub also ends the append in flight.
	var k Journal
	k.Add(a)
	if lost := k.Scrub(); lost != nil {
		t.Fatalf("pristine Scrub lost %v", lost)
	}
	k.Tear()
	if lost := k.Scrub(); lost != nil || !k.Covers(a) {
		t.Fatalf("a tear after a pristine Scrub lost %v, covers(a)=%v", lost, k.Covers(a))
	}
}

func TestJournalTornTrimWidensReplay(t *testing.T) {
	// Tearing a TRIM record must make replay strictly more conservative:
	// the synced extent reappears as dirty (idempotent to replay), and
	// nothing is reported lost.
	var j Journal
	e := extent.Extent{Off: 4096, Len: 4096}
	j.Add(e)
	j.Remove(e)
	j.Tear()
	if lost := j.Scrub(); len(lost) != 0 {
		t.Fatalf("a torn trim lost %v, want nothing", lost)
	}
	if !j.Covers(e) {
		t.Fatal("the extent whose trim was torn must be dirty again")
	}
}

func TestJournalRotTruncatesToValidPrefix(t *testing.T) {
	var j Journal
	exts := []extent.Extent{
		{Off: 0, Len: 4096}, {Off: 1 << 20, Len: 4096}, {Off: 2 << 20, Len: 4096},
	}
	for _, e := range exts {
		j.Add(e)
	}
	j.Rot(journalRecSize + 7) // flip a byte inside record 1
	lost := j.Scrub()
	var lostSet extent.Set
	for _, e := range lost {
		lostSet.Add(e)
	}
	if !j.Covers(exts[0]) {
		t.Fatal("record 0 precedes the rot and must survive")
	}
	for _, e := range exts[1:] {
		if j.Covers(e) {
			t.Fatalf("extent %v after the rotten record must not survive", e)
		}
		if !lostSet.Covers(e) {
			t.Fatalf("extent %v dropped but not reported lost", e)
		}
	}
}

// TestRecoverTornLastRecord is the torn-journal regression test: a crash
// mid-append must leave the journal replayable — recovery truncates to the
// valid record prefix, replays it, and quarantines the torn range instead
// of erroring out.
func TestRecoverTornLastRecord(t *testing.T) {
	const (
		offA, sizeA = int64(256 << 10), int64(64 << 10)
		offB, sizeB = int64(4 << 20), int64(32 << 10)
	)
	dataA := make([]byte, sizeA)
	for i := range dataA {
		dataA[i] = byte(i*7 + 3)
	}
	dataB := make([]byte, sizeB)
	for i := range dataB {
		dataB[i] = byte(i*13 + 5)
	}
	rg := newRig(t, 1, 1, store.NewMemChecksummed)
	err := rg.w.Run(func(r *mpi.Rank) {
		f1 := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f1.WriteContig(store.Bytes(dataA, offA), offA, sizeA); err != nil {
			t.Error(err)
		}
		if err := f1.WriteContig(store.Bytes(dataB, offB), offB, sizeB); err != nil {
			t.Error(err)
		}
		f1.InstalledHooks().(*Cache).Crash()

		// The torn-write fault: the crash shears the last journal append.
		rg.env.TearNode(0)

		f2, err := adio.OpenColl(r, adio.OpenArgs{
			Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
			Info: mpi.Info{
				adio.HintCBWrite: "enable", HintCache: "enable",
				HintCacheRecovery: "enable",
			},
			Hooks: rg.hooks(),
		})
		if err != nil {
			t.Errorf("recovery open after a torn journal must not error: %v", err)
			return
		}
		c2 := f2.InstalledHooks().(*Cache)
		if c2 == nil {
			t.Error("recovery open fell back to the standard path")
			return
		}
		if c2.Stats.RecoveredExtents != 1 || c2.Stats.RecoveredBytes != sizeA {
			t.Errorf("recovered %d extents / %d bytes, want 1 / %d",
				c2.Stats.RecoveredExtents, c2.Stats.RecoveredBytes, sizeA)
		}
		if c2.Stats.CorruptExtents != 1 || c2.Stats.QuarantinedBytes != sizeB {
			t.Errorf("quarantined %d extents / %d bytes, want 1 / %d",
				c2.Stats.CorruptExtents, c2.Stats.QuarantinedBytes, sizeB)
		}
		var qs extent.Set
		for _, e := range c2.Quarantined() {
			qs.Add(e)
		}
		if !qs.Covers(extent.Extent{Off: offB, Len: sizeB}) {
			t.Errorf("torn extent [%d,+%d) not quarantined: %v", offB, sizeB, c2.Quarantined())
		}
		var rs extent.Set
		for _, e := range c2.Recovered() {
			rs.Add(e)
		}
		if !rs.Covers(extent.Extent{Off: offA, Len: sizeA}) {
			t.Errorf("surviving extent [%d,+%d) not replayed: %v", offA, sizeA, c2.Recovered())
		}

		// A quarantined range degrades: reads bypass the condemned cache
		// payload, and a rewrite goes through to the global file and lifts
		// the quarantine.
		got := make([]byte, sizeB)
		if err := f2.ReadContig(store.Bytes(got, offB), offB, sizeB); err != nil {
			t.Error(err)
		}
		if bytes.Equal(got, dataB) {
			t.Error("read of a quarantined range served the condemned cache payload")
		}
		if err := f2.WriteContig(store.Bytes(dataB, offB), offB, sizeB); err != nil {
			t.Error(err)
		}
		for _, e := range c2.Quarantined() {
			if e.Overlaps(extent.Extent{Off: offB, Len: sizeB}) {
				t.Errorf("write-through did not lift the quarantine: %v", c2.Quarantined())
			}
		}
		if err := f2.Close(); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := rg.fs.Lookup("global.dat")
	if meta == nil {
		t.Fatal("global file missing after recovery")
	}
	gotA := make([]byte, sizeA)
	meta.Store().ReadAt(store.Bytes(gotA, offA), offA, int64(len(gotA)))
	if !bytes.Equal(gotA, dataA) {
		t.Fatal("replayed payload does not match the crashed session's write")
	}
	gotB := make([]byte, sizeB)
	meta.Store().ReadAt(store.Bytes(gotB, offB), offB, int64(len(gotB)))
	if !bytes.Equal(gotB, dataB) {
		t.Fatal("written-through payload does not match")
	}
}

// TestDoubleCrashDuringRecoveryIsIdempotent mirrors the chaos journal-
// idempotence oracle at unit scale: a second crash after the first replay
// (modelled by re-staging the journal whose trim the crash lost, torn
// mid-append for good measure) must leave the journal replayable, and the
// second recovery must not change the global file.
func TestDoubleCrashDuringRecoveryIsIdempotent(t *testing.T) {
	const off, size = int64(512 << 10), int64(128 << 10)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*11 + 1)
	}
	rg := newRig(t, 1, 1, store.NewMemChecksummed)
	err := rg.w.Run(func(r *mpi.Rank) {
		f1 := rg.open(r, t, mpi.Info{
			adio.HintCBWrite: "enable", HintCache: "enable", HintFlushFlag: "flush_onclose",
		})
		if err := f1.WriteContig(store.Bytes(data, off), off, size); err != nil {
			t.Error(err)
		}
		f1.InstalledHooks().(*Cache).Crash()

		recover := func(tag string) *Cache {
			f, err := adio.OpenColl(r, adio.OpenArgs{
				Comm: rg.w.Comm(), Registry: rg.reg, Path: "global.dat", Create: true,
				Info: mpi.Info{
					adio.HintCBWrite: "enable", HintCache: "enable",
					HintCacheRecovery: "enable", HintDiscardFlag: "disable",
				},
				Hooks: rg.hooks(),
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			c := f.InstalledHooks().(*Cache)
			if c == nil {
				t.Fatalf("%s: fell back to the standard path", tag)
			}
			if err := f.Close(); err != nil {
				t.Errorf("%s close: %v", tag, err)
			}
			return c
		}

		c2 := recover("recover1")
		if c2.Stats.RecoveredBytes != size {
			t.Fatalf("first recovery replayed %d bytes, want %d", c2.Stats.RecoveredBytes, size)
		}
		key := c2.JournalKey()
		snapA := make([]byte, size)
		rg.fs.Lookup("global.dat").Store().ReadAt(store.Bytes(snapA, off), off, int64(len(snapA)))

		// Second crash: the data landed but the journal trims were lost, and
		// the dying append was torn on top. The tear shears the second
		// record; the first must stay replayable.
		half := size / 2
		rg.env.RestoreJournal(key, []extent.Extent{
			{Off: off, Len: half}, {Off: off + half, Len: half},
		})
		rg.env.TearNode(0)

		c3 := recover("recover2")
		if c3.Stats.RecoveredBytes != half {
			t.Errorf("second recovery replayed %d bytes, want the surviving prefix (%d)", c3.Stats.RecoveredBytes, half)
		}
		if c3.Stats.CorruptExtents != 1 || c3.Stats.QuarantinedBytes != half {
			t.Errorf("second recovery quarantined %d extents / %d bytes, want 1 / %d",
				c3.Stats.CorruptExtents, c3.Stats.QuarantinedBytes, half)
		}
		snapB := make([]byte, size)
		rg.fs.Lookup("global.dat").Store().ReadAt(store.Bytes(snapB, off), off, int64(len(snapB)))
		if !bytes.Equal(snapA, snapB) {
			t.Error("second replay changed the global file: recovery is not idempotent")
		}
		if !bytes.Equal(snapB, data) {
			t.Error("recovered payload does not match the crashed session's write")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
