package core

import (
	"sort"

	"repro/internal/extent"
)

// The Env's journal registry models per-node NVM-resident journals, which
// outlive any single open. These accessors expose it read/write to external
// oracles (internal/chaos) that must inspect what a crashed session left
// behind and re-stage a journal to probe replay idempotence.

// JournalKeys returns the keys of all retained non-empty dirty-extent
// journals, sorted for deterministic iteration.
func (e *Env) JournalKeys() []string {
	keys := make([]string, 0, len(e.journals))
	for k, s := range e.journals {
		if s.Len() > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// JournalExtents returns a copy of the dirty extents journalled under key
// (nil when no journal is retained).
func (e *Env) JournalExtents(key string) []extent.Extent {
	s, ok := e.journals[key]
	if !ok {
		return nil
	}
	return s.Extents()
}

// RestoreJournal re-stages exts as key's journal, replacing whatever is
// there. Chaos testing uses this to model a crash that interrupted journal
// trimming: the data reached the global file but the journal entries
// survived, so the next recovery replays them again — which must be a
// no-op (idempotence).
func (e *Env) RestoreJournal(key string, exts []extent.Extent) {
	if e.journals == nil {
		e.journals = make(map[string]*Journal)
	}
	j := &Journal{}
	for _, x := range exts {
		j.Add(x)
	}
	e.journals[key] = j
}

// ClearJournal discards the journal retained under key.
func (e *Env) ClearJournal(key string) { e.dropJournal(key) }

// ScrubLost returns the cumulative ranges recovery scrubs condemned under
// key (nil when nothing was ever lost). Unlike a live Cache's quarantine
// view this ledger survives recovery opens that die mid-replay, so
// oracles can tell detected corruption from silent loss even when no
// recovered cache is left to ask.
func (e *Env) ScrubLost(key string) []extent.Extent {
	s, ok := e.scrubLost[key]
	if !ok {
		return nil
	}
	return s.Extents()
}

// JournalKey identifies this cache file in the Env's journal registry
// (exported for oracles that correlate a live cache with its journal).
func (c *Cache) JournalKey() string { return c.key }

// Name returns the cache file's path on the node-local file system.
func (c *Cache) Name() string { return c.name }
