package core

import (
	"repro/internal/extent"
	"repro/internal/store"
)

// Tenancy reports whether multi-tenant service mode is active.
func (o Options) Tenancy() bool { return o.Tenant.Name != "" }

// Covers reports whether the folded view covers e entirely.
func (j *Journal) Covers(e extent.Extent) bool { return j.set.Covers(e) }

// Seq returns the last committed sequence number.
func (j *Journal) Seq() uint64 { return j.seq }

// Rot flips one image byte (bit-rot at rest). The offset wraps so any
// non-negative off hits a real byte. No-op on an empty journal.
func (j *Journal) Rot(off int) {
	if len(j.img) == 0 || off < 0 {
		return
	}
	j.img[off%len(j.img)] ^= 0xFF
}

// Crashed reports whether Crash was called.
func (c *Cache) Crashed() bool { return c.crashed }

// Dirty returns the unsynced-extent journal (tests inspect it).
func (c *Cache) Dirty() *Journal { return c.dirty }

// Outstanding returns the number of sync requests not yet completed.
func (c *Cache) Outstanding() int {
	n := 0
	for _, req := range c.outstanding {
		if !req.greq.Done() {
			n++
		}
	}
	return n
}

// ImagePeak returns the largest image capacity, in bytes, over the
// journals e retains: no image has held more since its journal was made.
func (e *Env) ImagePeak() int {
	peak := 0
	for _, j := range e.journals {
		peak = max(peak, cap(j.img))
	}
	return peak
}

// NeverCheckpoint switches journal checkpoints off until the returned
// function restores them.
func NeverCheckpoint() (restore func()) {
	slack := checkpointSlack
	checkpointSlack = 1 << 40
	return func() { checkpointSlack = slack }
}

// CacheStore returns the cache file's store.
func (c *Cache) CacheStore() store.Store { return c.cfile.Store() }
