package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/extent"
)

// listJournal is the journal as it was kept before the image became the
// only copy of the records: a decoded record list next to the image, with
// Scrub refolding the surviving prefix from the list.
type listJournal struct {
	recs []listRec
	img  []byte
	seq  uint64
	set  extent.Set
}

type listRec struct {
	op  byte
	ext extent.Extent
}

func (j *listJournal) append(op byte, e extent.Extent) {
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
	if len(j.img) >= 5 {
		j.img = j.img[:len(j.img)-5]
	}
}

func (j *listJournal) Rot(off int) {
	if len(j.img) > 0 && off >= 0 {
		j.img[off%len(j.img)] ^= 0xFF
	}
}

func (j *listJournal) Scrub() []extent.Extent {
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
	return lost
}

// TestJournalImageMatchesRecordList drives the journal and the record-list
// journal through the same random Add/Remove/Tear/Rot/Scrub sequences: every
// step must leave the same lost ranges, folded extents, commit sequence and
// image bytes.
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
				// 32 torn 5-byte tails leave the image on a frame boundary;
				// recovery scrubs before anything is appended again (see
				// TestJournalScrubFoldsTheImage for an append in between).
				for range 32 {
					got.Tear()
					want.Tear()
				}
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
// the record list disagree: tears cut the image back to a frame boundary and
// a later append commits a record right after the surviving prefix. Scrub
// must keep that record, which is valid on the device, and report the
// torn-away records as lost. Folding the first records of the list instead
// kept a torn-away record and quarantined the valid one.
func TestJournalScrubFoldsTheImage(t *testing.T) {
	var j Journal
	rec := func(i int) extent.Extent { return extent.Extent{Off: int64(i) * 1000, Len: 100} }
	for i := 1; i <= 10; i++ {
		j.Add(rec(i))
	}
	for range 32 { // 160 bytes: records 6..10
		j.Tear()
	}
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
