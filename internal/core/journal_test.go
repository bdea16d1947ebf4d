package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/extent"
)

// listJournal is the journal as it was kept before the image became the
// only copy of the records: a decoded record list next to the image, with
// Scrub refolding the surviving prefix from the list. It checkpoints by the
// same rule as Journal, rebuilding both from the folded set, unless full is
// set: then it keeps every record, the uncompacted reference.
type listJournal struct {
	recs     []listRec
	img      []byte
	seq      uint64
	set      extent.Set
	full     bool
	damaged  bool
	inFlight bool
}

type listRec struct {
	op  byte
	ext extent.Extent
}

func (j *listJournal) append(op byte, e extent.Extent) {
	if live := j.set.Extents(); !j.full && !j.damaged && len(j.recs) > 2*len(live)+checkpointSlack {
		if j.valid() == len(j.recs) && len(j.img) == len(j.recs)*journalRecSize {
			j.recs, j.img = nil, nil
			for _, x := range live {
				j.write(opAdd, x)
			}
		} else {
			j.damaged = true
		}
	}
	j.write(op, e)
	j.inFlight = true
}

func (j *listJournal) write(op byte, e extent.Extent) {
	j.seq++
	j.recs = append(j.recs, listRec{op: op, ext: e})
	var frame [journalRecSize]byte
	frame[0] = journalMagic
	frame[1] = op
	binary.LittleEndian.PutUint16(frame[2:4], journalPayload)
	binary.LittleEndian.PutUint64(frame[4:12], j.seq)
	binary.LittleEndian.PutUint64(frame[12:20], uint64(e.Off))
	binary.LittleEndian.PutUint64(frame[20:28], uint64(e.Len))
	binary.LittleEndian.PutUint32(frame[28:32], crc32.Checksum(frame[:28], journalCRC))
	j.img = append(j.img, frame[:]...)
}

func (j *listJournal) Add(e extent.Extent) {
	if e.Empty() {
		return
	}
	j.append(opAdd, e)
	j.set.Add(e)
}

func (j *listJournal) Remove(e extent.Extent) {
	if e.Empty() || !j.set.Overlaps(e) {
		return
	}
	j.append(opTrim, e)
	j.set.Remove(e)
}

func (j *listJournal) Tear() {
	if j.inFlight {
		j.inFlight = false
		j.img = j.img[:len(j.img)-5]
	}
}

func (j *listJournal) Rot(off int) {
	if len(j.img) > 0 && off >= 0 {
		j.img[off%len(j.img)] ^= 0xFF
	}
}

func (j *listJournal) Extents() []extent.Extent { return j.set.Extents() }

// valid returns how many leading whole records of the image pass their checks.
func (j *listJournal) valid() int {
	valid := 0
	for off := 0; off+journalRecSize <= len(j.img); off += journalRecSize {
		frame := j.img[off : off+journalRecSize]
		if frame[0] != journalMagic || (frame[1] != opAdd && frame[1] != opTrim) ||
			binary.LittleEndian.Uint16(frame[2:4]) != journalPayload ||
			binary.LittleEndian.Uint32(frame[28:32]) != crc32.Checksum(frame[:28], journalCRC) {
			break
		}
		valid++
	}
	return valid
}

func (j *listJournal) Scrub() []extent.Extent {
	j.inFlight = false
	valid := j.valid()
	if valid >= len(j.recs) && len(j.img) == len(j.recs)*journalRecSize {
		return nil
	}
	var kept extent.Set
	for _, r := range j.recs[:valid] {
		if r.op == opAdd {
			kept.Add(r.ext)
		} else {
			kept.Remove(r.ext)
		}
	}
	var lost []extent.Extent
	for _, e := range j.set.Extents() {
		lost = append(lost, kept.Gaps(e)...)
	}
	j.recs = j.recs[:valid]
	j.img = j.img[:valid*journalRecSize]
	j.set = kept
	j.damaged = false
	return lost
}

// TestJournalImageMatchesRecordList drives the journal and the record-list
// journal through the same random Add/Remove/Tear/Rot/Scrub sequences: every
// step must leave the same lost ranges, folded extents, commit sequence and
// image bytes, checkpoints included.
func TestJournalImageMatchesRecordList(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for seq := 0; seq < 300; seq++ {
		var got Journal
		var want listJournal
		for step := 0; step < 60; step++ {
			op := rng.Intn(21)
			switch {
			case op < 9:
				e := extent.Extent{Off: rng.Int63n(64) * 512, Len: 1 + rng.Int63n(8*512)}
				got.Add(e)
				want.Add(e)
			case op < 15:
				e := extent.Extent{Off: rng.Int63n(64) * 512, Len: 1 + rng.Int63n(8*512)}
				got.Remove(e)
				want.Remove(e)
			case op < 16:
				got.Tear()
				want.Tear()
			case op < 17:
				// A crash tears the append in flight and recovery scrubs
				// before anything is appended again.
				got.Tear()
				want.Tear()
				gl, wl := got.Scrub(), want.Scrub()
				if !slices.Equal(gl, wl) {
					t.Fatalf("sequence %d step %d: Scrub after tears lost %v, want %v", seq, step, gl, wl)
				}
			case op < 18:
				off := rng.Intn(1 << 12)
				got.Rot(off)
				want.Rot(off)
			default:
				gl, wl := got.Scrub(), want.Scrub()
				if !slices.Equal(gl, wl) {
					t.Fatalf("sequence %d step %d: Scrub lost %v, want %v", seq, step, gl, wl)
				}
			}
			if !slices.Equal(got.Extents(), want.set.Extents()) {
				t.Fatalf("sequence %d step %d: extents %v, want %v", seq, step, got.Extents(), want.set.Extents())
			}
			if got.Seq() != want.seq {
				t.Fatalf("sequence %d step %d: Seq %d, want %d", seq, step, got.Seq(), want.seq)
			}
			if !bytes.Equal(got.img, want.img) {
				t.Fatalf("sequence %d step %d: image differs (%d vs %d bytes)", seq, step, len(got.img), len(want.img))
			}
		}
	}
}

// TestJournalScrubFoldsTheImage covers the one case where the image and
// the record list disagree: the image loses its tail back to a frame
// boundary and a later append commits a record right after the surviving
// prefix. Scrub must keep that record, which is valid on the device, and
// report the cut-away records as lost. Folding the first records of the
// list instead kept a cut-away record and quarantined the valid one.
func TestJournalScrubFoldsTheImage(t *testing.T) {
	var j Journal
	rec := func(i int) extent.Extent { return extent.Extent{Off: int64(i) * 1000, Len: 100} }
	for i := 1; i <= 10; i++ {
		j.Add(rec(i))
	}
	j.img = j.img[:5*journalRecSize] // records 6..10 lost at rest
	j.Add(rec(20))
	lost := j.Scrub()
	if want := []extent.Extent{rec(6), rec(7), rec(8), rec(9), rec(10)}; !slices.Equal(lost, want) {
		t.Fatalf("Scrub lost %v, want the torn-away records %v", lost, want)
	}
	want := []extent.Extent{rec(1), rec(2), rec(3), rec(4), rec(5), rec(20)}
	if !slices.Equal(j.Extents(), want) {
		t.Fatalf("dirty extents after Scrub %v, want %v", j.Extents(), want)
	}
	if lost := j.Scrub(); lost != nil {
		t.Fatalf("a second Scrub lost %v, want nil", lost)
	}
}

// TestJournalCheckpointZeroAlloc checks that a warm journal checkpoints
// without allocating and that its image stays bounded: each cycle dirties
// 40 disjoint extents and trims them again, which checkpoints the image
// several times.
func TestJournalCheckpointZeroAlloc(t *testing.T) {
	var j Journal
	cycle := func() {
		for i := range 40 {
			j.Add(extent.Extent{Off: int64(i) * 8192, Len: 4096})
		}
		for i := range 40 {
			j.Remove(extent.Extent{Off: int64(i) * 8192, Len: 4096})
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("a warm cycle of 80 appends allocated %.0f times, want 0", allocs)
	}
	if limit := (2*40 + checkpointSlack + 1) * journalRecSize; cap(j.img) > limit {
		t.Errorf("image capacity %d bytes after 12 cycles, want <= %d", cap(j.img), limit)
	}
}

// BenchmarkJournalAppend appends b.N commit records into a journal whose
// image has already grown to hold them, and fails if an append allocates.
func BenchmarkJournalAppend(b *testing.B) {
	var j Journal
	appendAll := func() {
		j.img = j.img[:0]
		for i := 0; i < b.N; i++ {
			j.append(opAdd, extent.Extent{Off: int64(i) * 4096, Len: 4096})
		}
	}
	appendAll()
	b.ResetTimer()
	if allocs := testing.AllocsPerRun(1, appendAll); allocs != 0 {
		b.Fatalf("%d appends into a pre-grown journal allocated %.0f times, want 0", b.N, allocs)
	}
}

// modelJournal is what the recovery model drives beside its reference:
// Journal and the sabotaged checkpoints.
type modelJournal interface {
	Add(extent.Extent)
	Remove(extent.Extent)
	Tear()
	Rot(off int)
	Scrub() []extent.Extent
	Extents() []extent.Extent
}

// checkRecovery drives journals from newJ through nseq random
// Add/Remove/Tear/Rot/Scrub sequences and returns the first fault it finds.
//
// Without rot (damage false), each journal runs beside the uncompacted
// reference: every Scrub must report the same lost ranges and every step
// must leave the same folded extents. A tear cuts only the record appended
// since the last tear or Scrub, which is the same record in both, since a
// checkpoint runs before its append. With rot (damage true) the images
// differ, because rot flips other bytes of a shorter image. So the journal
// is held to what recovery needs: every byte written and not since trimmed
// or reported lost is kept or reported lost, and no byte that was never
// written is kept.
func checkRecovery(newJ func() modelJournal, damage bool, nseq int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for seq := 0; seq < nseq; seq++ {
		got, want := newJ(), &listJournal{full: true}
		var dirty, written extent.Set
		scrub := func(step int) error {
			lost := got.Scrub()
			if !damage {
				if wl := want.Scrub(); !slices.Equal(lost, wl) {
					return fmt.Errorf("sequence %d step %d: Scrub lost %v, want %v", seq, step, lost, wl)
				}
				return nil
			}
			var held extent.Set
			for _, e := range append(got.Extents(), lost...) {
				held.Add(e)
			}
			for _, e := range dirty.Extents() {
				if !held.Covers(e) {
					return fmt.Errorf("sequence %d step %d: dirty %v neither kept nor reported lost (kept %v, lost %v)",
						seq, step, e, got.Extents(), lost)
				}
			}
			for _, e := range got.Extents() {
				if !written.Covers(e) {
					return fmt.Errorf("sequence %d step %d: kept %v, never written", seq, step, e)
				}
			}
			for _, e := range lost {
				dirty.Remove(e)
			}
			return nil
		}
		for step := 0; step < 200; step++ {
			op := rng.Intn(21)
			e := extent.Extent{Off: rng.Int63n(64) * 512, Len: 1 + rng.Int63n(8*512)}
			off := rng.Intn(1 << 12)
			switch {
			case op < 9:
				got.Add(e)
				want.Add(e)
				dirty.Add(e)
				written.Add(e)
			case op < 15:
				got.Remove(e)
				want.Remove(e)
				dirty.Remove(e)
			case op < 16:
				got.Tear()
				want.Tear()
			case op < 18 && damage:
				got.Rot(off)
			default:
				if err := scrub(step); err != nil {
					return err
				}
			}
			if !damage && !slices.Equal(got.Extents(), want.Extents()) {
				return fmt.Errorf("sequence %d step %d: extents %v, want %v", seq, step, got.Extents(), want.Extents())
			}
		}
	}
	return nil
}

// withSlack runs fn with checkpointSlack set to each of 0, which
// checkpoints whenever records outnumber twice the live extents, and the
// production value.
func withSlack(t *testing.T, fn func(slack int) error) []error {
	t.Helper()
	defer func(s int) { checkpointSlack = s }(checkpointSlack)
	var errs []error
	for _, slack := range []int{0, checkpointSlack} {
		checkpointSlack = slack
		errs = append(errs, fn(slack))
	}
	return errs
}

// TestJournalCheckpointRecoversLikeFullHistory is the checkpoint's
// recovery-equivalence model test: a checkpointing Journal must recover
// like the journal that keeps every record (see checkRecovery).
func TestJournalCheckpointRecoversLikeFullHistory(t *testing.T) {
	errs := withSlack(t, func(slack int) error {
		checkpoints := 0
		newJ := func() modelJournal { return &countingJournal{n: &checkpoints} }
		for _, damage := range []bool{false, true} {
			if err := checkRecovery(newJ, damage, 200, 36); err != nil {
				return fmt.Errorf("slack %d, damage %v: %w", slack, damage, err)
			}
		}
		t.Logf("slack %d: %d checkpoints", slack, checkpoints)
		if checkpoints == 0 {
			return fmt.Errorf("slack %d: no append checkpointed", slack)
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// countingJournal counts the appends that checkpointed: those after which
// the image holds no more records than before.
type countingJournal struct {
	Journal
	n *int
}

func (c *countingJournal) Add(e extent.Extent) {
	seq, recs := c.seq, c.recs
	c.Journal.Add(e)
	c.count(seq, recs)
}

func (c *countingJournal) Remove(e extent.Extent) {
	seq, recs := c.seq, c.recs
	c.Journal.Remove(e)
	c.count(seq, recs)
}

func (c *countingJournal) count(seq uint64, recs int) {
	if c.seq != seq && c.recs <= recs {
		*c.n++
	}
}

// healingJournal checkpoints whatever state the image is in, so a torn or
// rotted image is rewritten clean before Scrub can see the damage.
type healingJournal struct{ Journal }

func (h *healingJournal) Add(e extent.Extent)    { h.heal(); h.Journal.Add(e) }
func (h *healingJournal) Remove(e extent.Extent) { h.heal(); h.Journal.Remove(e) }

func (h *healingJournal) heal() {
	if h.recs > 2*h.set.Len()+checkpointSlack {
		h.checkpoint()
	}
}

// lateJournal checkpoints after the append instead of before it, so the
// record a Tear cuts is a checkpoint record, not the one appended.
type lateJournal struct{ Journal }

func (l *lateJournal) Add(e extent.Extent)    { l.Journal.Add(e); l.late() }
func (l *lateJournal) Remove(e extent.Extent) { l.Journal.Remove(e); l.late() }

func (l *lateJournal) late() {
	if l.recs > 2*l.set.Len()+checkpointSlack && l.intact(l.validRecords()) {
		l.checkpoint()
	}
}

// TestJournalRecoveryModelCatchesBadCheckpoints is the model test's
// sabotage self-test: a checkpoint that rewrites a damaged image, and one
// that runs after the append, must each make the model report a fault.
func TestJournalRecoveryModelCatchesBadCheckpoints(t *testing.T) {
	for name, newJ := range map[string]func() modelJournal{
		"healing": func() modelJournal { return &healingJournal{} },
		"late":    func() modelJournal { return &lateJournal{} },
	} {
		errs := withSlack(t, func(int) error { return checkRecovery(newJ, false, 200, 36) })
		if errors.Join(errs...) == nil {
			t.Errorf("%s checkpoint: the recovery model found no fault", name)
			continue
		}
		t.Logf("%s checkpoint: %v", name, errors.Join(errs...))
	}
}
