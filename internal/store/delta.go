package store

import (
	"fmt"

	"elinda/internal/rdf"
)

// Delta is an ordered batch of triple mutations — the one write unit of
// the store. Store.Apply applies a delta atomically: readers observe
// either the snapshot before the whole delta or the snapshot after it,
// never an intermediate state, and with a WAL attached the delta is
// durable before it is acknowledged.
//
// Ops apply in order, so a delta may delete a triple and re-insert it
// (or vice versa); Apply reduces the sequence to its net membership
// change before touching the indexes. The zero value is an empty delta
// ready for use.
type Delta struct {
	ops []rdf.TripleOp
}

// DeltaOf builds a delta from explicit ops.
func DeltaOf(ops ...rdf.TripleOp) Delta { return Delta{ops: ops} }

// Insert appends insertion ops for ts and returns d for chaining.
func (d *Delta) Insert(ts ...rdf.Triple) *Delta {
	for _, t := range ts {
		d.ops = append(d.ops, rdf.Insert(t))
	}
	return d
}

// Delete appends deletion ops for ts and returns d for chaining.
func (d *Delta) Delete(ts ...rdf.Triple) *Delta {
	for _, t := range ts {
		d.ops = append(d.ops, rdf.Delete(t))
	}
	return d
}

// Op appends one op and returns d for chaining.
func (d *Delta) Op(op rdf.TripleOp) *Delta {
	d.ops = append(d.ops, op)
	return d
}

// Ops returns the mutation sequence in application order. The slice is
// shared; callers must not mutate it.
func (d Delta) Ops() []rdf.TripleOp { return d.ops }

// Len returns the number of ops in the delta.
func (d Delta) Len() int { return len(d.ops) }

// ApplyResult describes what one Apply actually changed. From and To are
// the store generations before and after (equal when the delta was a
// complete no-op — all inserts already present, all deletes already
// absent). NetInserts and NetDeletes are the net membership changes in
// dictionary-encoded form: a triple whose membership is the same before
// and after the delta — inserted then deleted, or deleted then
// re-inserted — appears in neither, though its ops still advance the
// generation.
type ApplyResult struct {
	From, To uint64
	// Inserted and Deleted count the net changes (= len of the slices).
	Inserted, Deleted int
	// NetInserts and NetDeletes are encoded against the store dictionary;
	// decode with Store.Triple. Shared slices — do not mutate.
	NetInserts []rdf.EncodedTriple
	NetDeletes []rdf.EncodedTriple
}

// Changed reports whether the delta had any effect.
func (r ApplyResult) Changed() bool { return r.To != r.From }

// Apply is the single write entry point of the store: it validates the
// delta, reduces it to its effective ops (inserts of absent triples,
// deletes of present ones — tracked through the delta's own ordering, so
// an insert-then-delete is two effective ops with zero net effect),
// makes those ops durable in one WAL batch before anything is applied or
// acknowledged, and publishes one new snapshot with the net membership
// change.
//
// Deletes of base-resident triples become tombstones in the snapshot's
// delta layer: the columnar base is not rewritten, reads subtract the
// tombstoned postings, and the next fold drops the rows physically.
// Deletes of overlay-resident triples are filtered out of the overlay
// directly. Either way a delete costs the overlay and tombstone arrays,
// never the store. The generation advances by the number of effective
// ops (matching a record-at-a-time WAL replay), so any change moves it
// even when the net membership delta is empty.
func (s *Store) Apply(d Delta) (ApplyResult, error) {
	for i, op := range d.ops {
		if err := op.Triple.Validate(); err != nil {
			return ApplyResult{}, fmt.Errorf("store: op %d: %w", i, err)
		}
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	snap := s.snap.Load()
	res := ApplyResult{From: snap.generation, To: snap.generation}

	// Reduce to effective ops. Membership is evaluated against the
	// current snapshot plus the delta's own earlier ops; the lookup never
	// grows the dictionary (durability precedes interning). The effective
	// sequence for one triple strictly alternates, starting from its
	// pre-delta state, so its first op says whether it was present before
	// and its last op whether it is present after.
	type membership struct{ was, now bool }
	touched := make(map[rdf.Triple]membership, len(d.ops))
	order := make([]rdf.Triple, 0, len(d.ops)) // touched triples, by first effective op
	eff := make([]rdf.TripleOp, 0, len(d.ops))
	for _, op := range d.ops {
		m, seen := touched[op.Triple]
		if !seen {
			if enc, known := lookupEncoded(s.dict, op.Triple); known {
				m.was = snap.Contains(enc)
			}
			m.now = m.was
		}
		if op.Del != m.now {
			continue // delete of an absent triple / insert of a present one
		}
		if !seen {
			order = append(order, op.Triple)
		}
		m.now = !op.Del
		touched[op.Triple] = m
		eff = append(eff, op)
	}
	if len(eff) == 0 {
		return res, nil
	}

	// Durability before acknowledgement and before interning: one
	// durability point for the whole delta. On failure nothing is applied
	// and no new term was interned — the store, its dictionary and the
	// log never disagree on what was acknowledged.
	if s.wal != nil {
		if err := s.wal.AppendOps(eff); err != nil {
			return ApplyResult{}, fmt.Errorf("store: %w", err)
		}
	}

	// Net membership per touched triple. A triple whose first effective
	// op is a delete was present, so its terms are known; every other one
	// starts with an insert. Encoding in first-effective-op order
	// therefore interns new terms in first-effective-insert order —
	// transient triples included — exactly as applying the same ops one
	// delta at a time (a record-at-a-time WAL replay) does.
	var ins, del []rdf.EncodedTriple
	for _, t := range order {
		e := s.dict.Encode(t)
		switch m := touched[t]; {
		case m.now && !m.was:
			ins = append(ins, e)
		case m.was && !m.now:
			del = append(del, e)
		}
	}

	next := applyMutations(snap, ins, del, uint64(len(eff)))
	s.snap.Store(next)
	res.To = next.generation
	res.Inserted, res.Deleted = len(ins), len(del)
	res.NetInserts, res.NetDeletes = ins, del
	return res, nil
}

// applyMutations builds the successor snapshot for a net mutation set:
// ins are triples absent from snap (to add), del are triples present in
// snap (to remove), the two disjoint. gen is the generation advance. snap
// is never mutated, and the cost is the overlay and tombstone arrays —
// the base is shared until a fold.
func applyMutations(snap *Snapshot, ins, del []rdf.EncodedTriple, gen uint64) *Snapshot {
	next := *snap
	next.generation = snap.generation + gen

	if len(del) > 0 {
		// Base-resident deletes become tombstones; a triple already masked
		// by one is not base-live, so it — like every other delete — lives
		// in the overlay and is filtered out of it physically.
		var baseDel []rdf.EncodedTriple
		overlayDel := make(map[rdf.EncodedTriple]struct{})
		for _, e := range del {
			if snap.base.containsID(e.S, e.P, e.O) && !snap.tombstoned(e) {
				baseDel = append(baseDel, e)
			} else {
				overlayDel[e] = struct{}{}
			}
		}
		if len(baseDel) > 0 {
			next.delSPO = mergeSortedTriples(snap.delSPO, baseDel, cmpSPO)
			next.delPOS = mergeSortedTriples(snap.delPOS, baseDel, cmpPOS)
			next.delOSP = mergeSortedTriples(snap.delOSP, baseDel, cmpOSP)
		}
		if len(overlayDel) > 0 {
			next.deltaSPO = filterOps(snap.deltaSPO, overlayDel)
			next.deltaPOS = filterOps(snap.deltaPOS, overlayDel)
			next.deltaOSP = filterOps(snap.deltaOSP, overlayDel)
			next.tail = filterOps(snap.tail, overlayDel)
		}
	}

	// Small insert batches ride the unsorted tail; a full tail folds,
	// with the batch, into the sorted delta.
	if len(next.tail)+len(ins) < tailMax {
		next.tail = append(next.tail, ins...)
	} else {
		next.deltaSPO = mergeSortedTriples(foldTail(next.deltaSPO, next.tail, cmpSPO), ins, cmpSPO)
		next.deltaPOS = mergeSortedTriples(foldTail(next.deltaPOS, next.tail, cmpPOS), ins, cmpPOS)
		next.deltaOSP = mergeSortedTriples(foldTail(next.deltaOSP, next.tail, cmpOSP), ins, cmpOSP)
		next.tail = nil
	}

	// Fold when the delta or the tombstone set outgrows its bound.
	if bound := maxDelta(next.base); len(next.deltaSPO) >= bound || len(next.delSPO) >= bound {
		return compacted(&next)
	}
	return &next
}

// filterOps returns ops without the members of dead, sharing the input
// slice when nothing matches.
func filterOps(ops []rdf.EncodedTriple, dead map[rdf.EncodedTriple]struct{}) []rdf.EncodedTriple {
	hit := false
	for _, e := range ops {
		if _, d := dead[e]; d {
			hit = true
			break
		}
	}
	if !hit {
		return ops
	}
	out := make([]rdf.EncodedTriple, 0, len(ops))
	for _, e := range ops {
		if _, d := dead[e]; !d {
			out = append(out, e)
		}
	}
	return out
}
