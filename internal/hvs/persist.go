package hvs

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"
)

// snapshotDoc is the on-disk representation of the store.
type snapshotDoc struct {
	// Version guards against format drift.
	Version int
	// Generation is the KB generation the entries belong to.
	Generation uint64
	HaveGen    bool
	Threshold  time.Duration
	Entries    map[string]*Entry
}

const snapshotVersion = 1

// Snapshot serializes the cache contents with encoding/gob, so an eLinda
// endpoint can persist its heavy-query results across restarts (the
// mirrored knowledge bases change rarely; recomputing minutes-long
// queries on every boot would defeat the HVS).
func (s *Store) Snapshot(w io.Writer) error {
	s.mu.RLock()
	doc := snapshotDoc{
		Version:    snapshotVersion,
		Generation: s.generation,
		HaveGen:    s.haveGen,
		Threshold:  s.threshold,
		Entries:    make(map[string]*Entry, len(s.entries)),
	}
	for k, e := range s.entries {
		copied := *e
		copied.Shape = nil            // the recorder's, re-derived from the key
		copied.Bytes -= e.bodyBytes() // the bodies are not persisted
		doc.Entries[k] = &copied
	}
	s.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(doc); err != nil {
		return fmt.Errorf("hvs: encoding snapshot: %w", err)
	}
	return nil
}

// Restore replaces the cache contents from a snapshot, keeping the
// store's current threshold. generation is the KB generation the caller
// serves now: the entries are kept only when the snapshot was taken at
// exactly that generation, and otherwise the cache starts empty there —
// the generation only moves forward afterwards, so a snapshot from
// another history must not wait in the cache for the KB to reach its tag.
// The LRU order and byte accounting are rebuilt (snapshots written before
// byte accounting existed get their costs recomputed), and a configured
// byte budget is enforced immediately.
func (s *Store) Restore(r io.Reader, generation uint64) error {
	var doc snapshotDoc
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("hvs: decoding snapshot: %w", err)
	}
	if doc.Version != snapshotVersion {
		return fmt.Errorf("hvs: unsupported snapshot version %d", doc.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if doc.Entries == nil {
		doc.Entries = map[string]*Entry{}
	}
	s.clearLocked()
	s.generation, s.haveGen = generation, true
	if !doc.HaveGen || doc.Generation != generation {
		return nil
	}
	s.entries = doc.Entries
	for key, e := range s.entries {
		if e.Bytes == 0 {
			e.Bytes = ResultBytes(e.Result)
		}
		s.totalBytes += e.Bytes
		s.touchLocked(key)
	}
	s.evictOverBudgetLocked(nil)
	return nil
}
