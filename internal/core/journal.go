package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/extent"
)

// nodeKeyPrefix is the journal-registry key prefix of one node's caches
// (journalKey formats keys as "n<node>:<cache path>").
func nodeKeyPrefix(node int) string { return fmt.Sprintf("n%d:", node) }

// The dirty-extent journal's at-rest format: fixed-size commit records,
// each length-prefixed and checksummed, with a monotonic commit sequence.
// The trailing CRC is the atomic commit point — a record is committed iff
// it is complete and its CRC matches, so a torn append (crash mid-write)
// truncates replay to the last valid record instead of poisoning it.
//
//	[0]    magic (0xE1)
//	[1]    op: 1 = add (extent dirtied), 2 = trim (extent synced)
//	[2:4]  payload length (little-endian; always 24)
//	[4:12] commit sequence (monotonic per journal)
//	[12:20] extent offset
//	[20:28] extent length
//	[28:32] CRC-32C of bytes [0:28]
const (
	journalMagic   = 0xE1
	journalPayload = 24
	journalRecSize = 4 + journalPayload + 4

	opAdd  = 1
	opTrim = 2
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// Journal is one cache file's dirty-extent journal: its at-rest image
// (img — the committed records as they would sit on the NVM device, and
// the only thing corruption faults touch) and the folded extent set the
// cache layer reads. The image is the only copy of the records. It
// outlives the open, like the cache file itself.
type Journal struct {
	img  []byte
	recs int // records appended and not truncated by Scrub; the image may hold fewer whole ones
	seq  uint64
	set  extent.Set
}

// append encodes one commit record in place at the tail of the image.
func (j *Journal) append(op byte, e extent.Extent) {
	j.seq++
	j.recs++
	off := len(j.img)
	j.img = append(j.img, make([]byte, journalRecSize)...)
	frame := j.img[off:]
	frame[0] = journalMagic
	frame[1] = op
	binary.LittleEndian.PutUint16(frame[2:4], journalPayload)
	binary.LittleEndian.PutUint64(frame[4:12], j.seq)
	binary.LittleEndian.PutUint64(frame[12:20], uint64(e.Off))
	binary.LittleEndian.PutUint64(frame[20:28], uint64(e.Len))
	binary.LittleEndian.PutUint32(frame[28:32], crc32.Checksum(frame[:28], journalCRC))
}

// Add journals e as dirty (a committed cache write).
func (j *Journal) Add(e extent.Extent) {
	if e.Empty() {
		return
	}
	j.append(opAdd, e)
	j.set.Add(e)
}

// Remove journals a trim of e (the bytes reached the global file).
func (j *Journal) Remove(e extent.Extent) {
	if e.Empty() || !j.set.Overlaps(e) {
		return
	}
	j.append(opTrim, e)
	j.set.Remove(e)
}

// Len returns the number of dirty extents in the folded view.
func (j *Journal) Len() int { return j.set.Len() }

// TotalBytes returns the folded dirty byte count.
func (j *Journal) TotalBytes() int64 { return j.set.TotalBytes() }

// Extents returns the folded dirty extents.
func (j *Journal) Extents() []extent.Extent { return j.set.Extents() }

// Covers reports whether the folded view covers e entirely.
func (j *Journal) Covers(e extent.Extent) bool { return j.set.Covers(e) }

// Gaps returns the subranges of e not covered by the folded view.
func (j *Journal) Gaps(e extent.Extent) []extent.Extent { return j.set.Gaps(e) }

// Seq returns the last committed sequence number.
func (j *Journal) Seq() uint64 { return j.seq }

// Tear simulates a crash mid-append: the tail of the image — the last
// record's commit CRC plus one payload byte — is lost, leaving a prefix
// of the record persisted. No-op on an empty journal.
func (j *Journal) Tear() {
	const lost = 5
	if len(j.img) < lost {
		return
	}
	j.img = j.img[:len(j.img)-lost]
}

// Rot flips one image byte (bit-rot at rest). The offset wraps so any
// non-negative off hits a real byte. No-op on an empty journal.
func (j *Journal) Rot(off int) {
	if len(j.img) == 0 || off < 0 {
		return
	}
	j.img[off%len(j.img)] ^= 0xFF
}

// Scrub decodes the at-rest image and truncates the journal to its
// longest valid record prefix — the write-ahead-log read path. It returns
// the dirty ranges lost to the truncation (covered by the folded view of
// every record appended but not by the surviving prefix, which Scrub
// folds again from the image); the caller quarantines those. A
// pristine image returns nil without reshaping anything, so scrubbing a
// clean journal costs nothing and perturbs nothing.
//
// Dropped trim records only widen the surviving dirty set, which makes
// replay strictly more conservative — replaying an already-synced extent
// is idempotent. Dropped add records are the dangerous case, and exactly
// those ranges are reported as lost.
func (j *Journal) Scrub() []extent.Extent {
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
	if valid >= j.recs && len(j.img) == j.recs*journalRecSize {
		return nil
	}
	var kept extent.Set
	for off := 0; off < valid*journalRecSize; off += journalRecSize {
		frame := j.img[off : off+journalRecSize]
		e := extent.Extent{
			Off: int64(binary.LittleEndian.Uint64(frame[12:20])),
			Len: int64(binary.LittleEndian.Uint64(frame[20:28])),
		}
		if frame[1] == opAdd {
			kept.Add(e)
		} else {
			kept.Remove(e)
		}
	}
	var lost []extent.Extent
	for _, e := range j.set.Extents() {
		lost = append(lost, kept.Gaps(e)...)
	}
	j.recs = valid
	j.img = j.img[:valid*journalRecSize]
	j.set = kept
	return lost
}

// journalsForNode returns node n's retained journal keys, sorted for
// deterministic fault application.
func (e *Env) journalsForNode(node int) []string {
	prefix := nodeKeyPrefix(node)
	var keys []string
	for k := range e.journals {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// TearNode tears the in-flight journal append of every journal on node:
// the fault.TornWrite hook. Deterministic (sorted key order).
func (e *Env) TearNode(node int) {
	for _, k := range e.journalsForNode(node) {
		e.journals[k].Tear()
	}
}

// RotNode flips each at-rest journal-image byte on node with probability
// rate, drawing from rng: the journal half of the fault.BitRot hook.
// Deterministic given the rng state (sorted key order).
func (e *Env) RotNode(node int, rng *rand.Rand, rate float64) {
	for _, k := range e.journalsForNode(node) {
		img := e.journals[k].img
		for i := range img {
			if rng.Float64() < rate {
				img[i] ^= 0xFF
			}
		}
	}
}
