package store

import (
	"elinda/internal/rdf"
)

// WriteAheadLog is the durability hook the store drives. It is satisfied
// by *wal.WAL; the store depends on the shape only, so the wal package
// can import store in its crash tests without a cycle.
//
// The contract the store relies on: when AppendOps returns nil the
// records are as durable as the log's sync policy promises, and Cut
// returns a boundary such that every record appended before the call is
// in a segment below it.
type WriteAheadLog interface {
	AppendOps(ops []rdf.TripleOp) error
	Cut() (uint64, error)
	TruncateBefore(cut uint64) error
}

// AttachWAL puts the store in write-ahead-logged mode: every Apply and
// Load appends to w before the write is applied or acknowledged, and
// SaveSnapshot checkpoints w (cut at the snapshot boundary, truncate
// after durable publication).
//
// Attach after recovery replay and before serving writes: ops
// re-applied from the log during replay must go through Apply on a
// detached store, or they would be appended to the log again.
func (s *Store) AttachWAL(w WriteAheadLog) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.wal = w
}
