package store

import (
	"fmt"
	"slices"

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
// Deletes of overlay-resident triples are dropped from the overlay
// directly: k of them cost O(k log n) binary searches in the sorted
// delta runs, one copy of only the runs that hold a dead triple, and a
// linear pass over the unsorted tail (at most tailMax entries). Neither
// kind costs the store. The generation advances by the number of
// effective ops (matching a record-at-a-time WAL replay), so any change
// moves it even when the net membership delta is empty.
//
// The carries, if any, run on an effective write before it is published
// (see Carry), so a cache can be carried to the new generation before any
// reader can bind it.
func (s *Store) Apply(d Delta, carry ...Carry) (ApplyResult, error) {
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
	res.To = next.generation
	res.Inserted, res.Deleted = len(ins), len(del)
	res.NetInserts, res.NetDeletes = ins, del
	s.publish(res, next, carry)
	return res, nil
}

// Carry carries a cache across a write Apply is about to publish: res is
// the write and next the snapshot at res.To, which no reader can bind
// yet. It runs under the store's write lock, so carries see writes in
// generation order, and it must call publish once: the next carry passed
// to Apply runs inside that call, and after the last one next is
// published. A carry that holds its cache's lock across publish is at
// res.To before any reader of that cache can bind res.To.
type Carry func(res ApplyResult, next *Snapshot, publish func())

// publish runs carry[0], whose publish runs carry[1], and so on; the
// innermost call, with no carry left, publishes next. A carry that
// returns without calling its publish is a bug that would leave the write
// and every later carry undone, so it panics.
func (s *Store) publish(res ApplyResult, next *Snapshot, carry []Carry) {
	if len(carry) == 0 {
		s.snap.Store(next)
		return
	}
	called := false
	carry[0](res, next, func() {
		called = true
		s.publish(res, next, carry[1:])
	})
	if !called {
		panic("store: a Carry returned without calling publish")
	}
}

// applyMutations builds the successor snapshot for a net mutation set:
// ins are triples absent from snap (to add), del are triples present in
// snap (to remove), the two disjoint. gen is the generation advance. snap
// is never mutated and the base is shared until a fold. An overlay
// delete binary-searches each sorted delta run and copies only a run
// that holds a dead triple; the unsorted tail is filtered linearly.
func applyMutations(snap *Snapshot, ins, del []rdf.EncodedTriple, gen uint64) *Snapshot {
	next := *snap
	next.generation = snap.generation + gen

	if len(del) > 0 {
		// Base-resident deletes become tombstones; a triple already masked
		// by one is not base-live, so it — like every other delete — lives
		// in the overlay and is dropped from it physically.
		var baseDel, overlayDel []rdf.EncodedTriple
		for _, e := range del {
			if snap.base.containsID(e.S, e.P, e.O) && !snap.tombstoned(e) {
				baseDel = append(baseDel, e)
			} else {
				overlayDel = append(overlayDel, e)
			}
		}
		if len(baseDel) > 0 {
			next.delSPO = mergeSortedTriples(snap.delSPO, baseDel, cmpSPO)
			next.delPOS = mergeSortedTriples(snap.delPOS, baseDel, cmpPOS)
			next.delOSP = mergeSortedTriples(snap.delOSP, baseDel, cmpOSP)
		}
		if len(overlayDel) > 0 {
			// overlayDel is this call's own slice: sort it in place into
			// each run's order in turn.
			slices.SortFunc(overlayDel, cmpSPO)
			next.deltaSPO = dropSorted(snap.deltaSPO, overlayDel, cmpSPO)
			next.tail = dropUnsorted(snap.tail, overlayDel)
			slices.SortFunc(overlayDel, cmpPOS)
			next.deltaPOS = dropSorted(snap.deltaPOS, overlayDel, cmpPOS)
			slices.SortFunc(overlayDel, cmpOSP)
			next.deltaOSP = dropSorted(snap.deltaOSP, overlayDel, cmpOSP)
		}
	}

	// Small insert batches ride the unsorted tail; a full tail folds,
	// with the batch, into the sorted delta in one merge per run.
	if len(next.tail)+len(ins) < tailMax {
		next.tail = append(next.tail, ins...)
	} else {
		// tail ∪ ins in a fresh slice, so the fold never writes into the
		// backing array the tail shares with earlier snapshots.
		batch := slices.Concat(next.tail, ins)
		next.deltaSPO = mergeSortedTriples(next.deltaSPO, batch, cmpSPO)
		next.deltaPOS = mergeSortedTriples(next.deltaPOS, batch, cmpPOS)
		next.deltaOSP = mergeSortedTriples(next.deltaOSP, batch, cmpOSP)
		next.tail = nil
	}

	// Fold when the delta or the tombstone set outgrows its bound.
	if bound := maxDelta(next.base); len(next.deltaSPO) >= bound || len(next.delSPO) >= bound {
		return compacted(&next)
	}
	return &next
}

// dropSorted returns run without the members of dead, both sorted by cmp
// and duplicate-free. Each dead triple is found by binary search in the
// part of run past the previous one, so k dead triples cost O(k log n).
// run is shared when it holds none of them, and otherwise copied once,
// segment by segment between the hits.
func dropSorted(run, dead []rdf.EncodedTriple, cmp func(x, y rdf.EncodedTriple) int) []rdf.EncodedTriple {
	var out []rdf.EncodedTriple
	copied, lo := 0, 0 // run[copied:] is not yet in out; the next search starts at lo
	for _, e := range dead {
		i, found := slices.BinarySearchFunc(run[lo:], e, cmp)
		lo += i
		if !found {
			continue
		}
		if out == nil {
			out = make([]rdf.EncodedTriple, 0, len(run)-1)
		}
		out = append(out, run[copied:lo]...)
		lo++
		copied = lo
	}
	if out == nil {
		return run
	}
	return append(out, run[copied:]...)
}

// dropUnsorted returns the unsorted tail without the members of dead
// (sorted in SPO order), sharing tail when it holds none of them.
func dropUnsorted(tail, dead []rdf.EncodedTriple) []rdf.EncodedTriple {
	isDead := func(e rdf.EncodedTriple) bool {
		_, found := slices.BinarySearchFunc(dead, e, cmpSPO)
		return found
	}
	if !slices.ContainsFunc(tail, isDead) {
		return tail
	}
	return slices.DeleteFunc(slices.Clone(tail), isDead)
}
