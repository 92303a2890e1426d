// Package store implements eLinda's dictionary-encoded in-memory triple
// store. It plays the role of the Virtuoso database in the paper's
// architecture (Figure 3): the generic SPARQL evaluator in internal/sparql
// runs against it, the decomposer's specialized indexes are built from it,
// and the incremental evaluator scans it in chunks of N triples.
//
// The store is a set of triples: the three permutation indexes are its
// only representation, and nothing records the order triples arrived in.
// It publishes generation-tagged immutable Snapshots. Each snapshot keeps
// the permutation indexes (SPO, POS, OSP) as flat, columnar, sorted
// arrays — a two-level offset index over one contiguous []rdf.ID — so
// reads need no lock at all and Postings/Objects/Subjects return
// zero-copy sub-slices. Writes never mutate published state: a Load into
// an empty store bulk-builds the columnar base from one sort (SPO; the
// other two orders follow by counting passes), while later writes ride
// in a small overlay (a tiny unsorted tail that periodically folds into
// a sorted delta, plus tombstones masking deleted base rows) that one
// linear merge folds into a new base once it outgrows its bound. Snapshot() is a single atomic
// pointer load, readers scale linearly with cores, and a query that binds
// one snapshot observes a perfectly consistent knowledge base for its
// whole lifetime.
package store

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"elinda/internal/rdf"
)

// Snapshot is a frozen, fully immutable view of the store at one
// generation: a columnar base covering most triples plus a small sorted
// delta and a tiny recent-adds tail (both empty in the steady state after
// a bulk Load or a compaction). Every method is safe for unlimited
// concurrency without locking, and nothing a snapshot returns is ever
// mutated afterwards — returned slices must be treated as read-only.
//
// Snapshots are cheap to hold: later store writes build new snapshots and
// never touch published ones, so a query, a chart evaluation, or an index
// build can keep reading one snapshot for as long as it likes and observe
// a perfectly consistent knowledge base.
type Snapshot struct {
	dict *rdf.Dict
	base *columnar

	// Delta triples (past the base), sorted per permutation order.
	deltaSPO []rdf.EncodedTriple
	deltaPOS []rdf.EncodedTriple
	deltaOSP []rdf.EncodedTriple

	// tail holds the most recent Adds, unsorted and bounded by tailMax;
	// reads filter it linearly. Folding it into the sorted delta in
	// batches keeps Add's copy-on-write cost amortized O(1) instead of
	// O(delta) per insert.
	tail []rdf.EncodedTriple

	// Tombstones: base-resident triples deleted since the base was built,
	// sorted per permutation order (delSPO in SPO order, and so on).
	// Reads subtract them from base results; a fold/compaction drops the
	// triples physically. Deletes of overlay-resident triples never
	// become tombstones — they are filtered out of the delta/tail arrays
	// directly — so every tombstone masks exactly one base row, and a
	// deleted-then-re-inserted triple is a tombstone plus an overlay entry.
	delSPO []rdf.EncodedTriple
	delPOS []rdf.EncodedTriple
	delOSP []rdf.EncodedTriple

	generation uint64

	typeID     rdf.ID
	subClassID rdf.ID
	labelID    rdf.ID
}

// Store is a triple store over dictionary-encoded triples. All read
// methods are lock-free: they atomically load the current snapshot and
// serve from immutable data, so readers never block each other or
// writers, and read callbacks (Match, Scan) may safely re-enter the store
// — including its write methods (the re-entrant write is simply not
// visible to the in-flight iteration). Add/Load serialize on an internal
// writer lock.
//
// A monotonically increasing Generation lets caches (the HVS) detect
// knowledge-base updates: "The HVS is cleared on any update to the eLinda
// knowledge bases."
type Store struct {
	writeMu sync.Mutex // serializes Add/Load/compaction
	dict    *rdf.Dict
	snap    atomic.Pointer[Snapshot]

	// wal, when non-nil (AttachWAL), must durably log every write before
	// it is applied and acknowledged. Guarded by writeMu.
	wal WriteAheadLog

	// Frequently used IDs, resolved once.
	typeID     rdf.ID
	subClassID rdf.ID
	labelID    rdf.ID
}

const (
	// tailMax bounds the unsorted recent-adds tail before it folds into
	// the sorted delta (one O(delta) merge per tailMax Adds).
	tailMax = 256
	// minDeltaCompact is the smallest delta size that triggers a merge
	// into a new columnar base; the effective bound grows with the base
	// (max(minDeltaCompact, base/8)) so a long Add loop compacts
	// geometrically — amortized O(1) array work per insert.
	minDeltaCompact = 1024
)

// New returns an empty store with capacity hint n triples.
func New(n int) *Store {
	s := &Store{dict: rdf.NewDict(n / 4)}
	s.typeID = s.dict.Intern(rdf.TypeIRI)
	s.subClassID = s.dict.Intern(rdf.SubClassOfIRI)
	s.labelID = s.dict.Intern(rdf.LabelIRI)
	s.snap.Store(&Snapshot{
		dict:       s.dict,
		base:       buildColumnar(nil),
		typeID:     s.typeID,
		subClassID: s.subClassID,
		labelID:    s.labelID,
	})
	return s
}

// Dict exposes the store's term dictionary.
func (s *Store) Dict() *rdf.Dict { return s.dict }

// TypeID returns the interned ID of rdf:type.
func (s *Store) TypeID() rdf.ID { return s.typeID }

// SubClassOfID returns the interned ID of rdfs:subClassOf.
func (s *Store) SubClassOfID() rdf.ID { return s.subClassID }

// LabelID returns the interned ID of rdfs:label.
func (s *Store) LabelID() rdf.ID { return s.labelID }

// Generation returns the update counter. It increases on every successful
// Add or Load, so equality of generations implies an unchanged KB.
func (s *Store) Generation() uint64 { return s.snap.Load().generation }

// Snapshot returns the currently published frozen view — a single atomic
// load, O(1) regardless of pending writes, so binding a snapshot per
// query costs nothing. The snapshot is immutable and lock-free for all
// reads; see Snapshot's doc.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// compacted folds snap's overlay and tombstones into a fresh columnar
// base — one linear merge per permutation (base − tombstones + delta), no
// re-sort. It reads snap but never mutates it (snapshots are shared
// immutable data); publishing the result requires holding writeMu.
func compacted(snap *Snapshot) *Snapshot {
	out := *snap
	out.base = &columnar{
		n:   snap.Len(),
		spo: mergePerm(&snap.base.spo, snap.delSPO, foldTail(snap.deltaSPO, snap.tail, cmpSPO), keySPO),
		pos: mergePerm(&snap.base.pos, snap.delPOS, foldTail(snap.deltaPOS, snap.tail, cmpPOS), keyPOS),
		osp: mergePerm(&snap.base.osp, snap.delOSP, foldTail(snap.deltaOSP, snap.tail, cmpOSP), keyOSP),
	}
	// Statistics are recomputed at every base publication so they always
	// describe exactly the triples the new base covers.
	out.base.stats = computePlanStats(out.base)
	out.deltaSPO, out.deltaPOS, out.deltaOSP, out.tail = nil, nil, nil, nil
	out.delSPO, out.delPOS, out.delOSP = nil, nil, nil
	return &out
}

// foldTail merges the unsorted tail into a permutation-sorted delta.
func foldTail(delta, tail []rdf.EncodedTriple, cmp func(x, y rdf.EncodedTriple) int) []rdf.EncodedTriple {
	if len(tail) == 0 {
		return delta
	}
	return mergeSortedTriples(delta, tail, cmp)
}

// maxDelta is the delta size bound before a merge into a new base.
func maxDelta(base *columnar) int {
	if n := base.n / 8; n > minDeltaCompact {
		return n
	}
	return minDeltaCompact
}

// Add inserts one term-level triple, returning whether it was new. It is
// a thin wrapper over Apply — a one-op insert delta — so the triple
// lands in the snapshot overlay and is visible to store reads
// immediately, with overlay maintenance (tail fold, base compaction)
// amortized O(1) per insert.
func (s *Store) Add(t rdf.Triple) (bool, error) {
	res, err := s.Apply(DeltaOf(rdf.Insert(t)))
	return res.Inserted > 0, err
}

// lookupEncoded encodes t if and only if all three terms are already
// interned. A triple with an unknown term cannot be in the store, so a
// false return means "definitely new" without touching the dictionary.
func lookupEncoded(d *rdf.Dict, t rdf.Triple) (rdf.EncodedTriple, bool) {
	sid, ok := d.Lookup(t.S)
	if !ok {
		return rdf.EncodedTriple{}, false
	}
	pid, ok := d.Lookup(t.P)
	if !ok {
		return rdf.EncodedTriple{}, false
	}
	oid, ok := d.Lookup(t.O)
	if !ok {
		return rdf.EncodedTriple{}, false
	}
	return rdf.EncodedTriple{S: sid, P: pid, O: oid}, true
}

// Load bulk-inserts triples, skipping duplicates, and returns the number
// actually added. Instead of per-insert index maintenance it encodes and
// deduplicates the whole batch with one sort and, into an empty store,
// builds the columnar base straight from that sort (a populated store
// takes the batch into its overlay instead). Invalid triples abort the
// load with an error; triples added before the failure remain (the
// generation still advances).
func (s *Store) Load(ts []rdf.Triple) (int, error) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	snap := s.snap.Load()

	// Encode the valid prefix, then deduplicate with one sort instead of
	// a per-insert hash set.
	enc := make([]rdf.EncodedTriple, 0, len(ts))
	var loadErr error
	for i, t := range ts {
		if err := t.Validate(); err != nil {
			loadErr = fmt.Errorf("store: triple %d: %w", i, err)
			break
		}
		enc = append(enc, s.dict.Encode(t))
	}
	// Fold the freshly interned vocabulary into the dictionary's
	// published read side (and empty the write shards): later lookups go
	// lock-free and the shard maps stop duplicating the read map.
	s.dict.PublishReads()
	batch, spo := dedupBatch(snap, enc)
	if len(batch) > 0 {
		// Durability before acknowledgement, one durability point for the
		// whole batch. On failure nothing is applied: Load keeps the
		// acknowledged set and the log in agreement, same as Add. (Unlike
		// Add, the batch's vocabulary is already interned by the encode
		// pass above; a failed bulk load leaves those dictionary entries
		// behind, which wastes memory but affects no triple.) The batch is
		// in first-occurrence input order, so a replay interns its terms in
		// the order the encode pass above did.
		if s.wal != nil {
			ops := make([]rdf.TripleOp, len(batch))
			for i, e := range batch {
				ops[i] = rdf.Insert(s.dict.Decode(e))
			}
			if err := s.wal.AppendOps(ops); err != nil {
				return 0, fmt.Errorf("store: %w", err)
			}
		}
		s.snap.Store(applyBatch(snap, batch, spo))
	}
	return len(batch), loadErr
}

// dedupBatch filters enc down to the triples that are new to the
// snapshot, keeping the first occurrence of each in original order (the
// order Load hands the WAL). On an empty snapshot it also returns the
// same triples in SPO order — its one sort, reused by the base build —
// and spo is nil otherwise. The fast path sorts packed uint64 keys; huge
// ID spaces fall back to a comparator sort.
func dedupBatch(snap *Snapshot, enc []rdf.EncodedTriple) (batch, spo []rdf.EncodedTriple) {
	fresh := snap.Len() == 0
	if maxIDIn(enc) < packMax {
		sorted := make([]uint64, len(enc))
		for i, e := range enc {
			sorted[i] = packSPO(e)
		}
		slices.Sort(sorted)
		// Collect the values that occur more than once; bulk loads are
		// mostly duplicate-free, so this set is tiny (or empty, in which
		// case a fresh store can take the batch as is).
		dupCount := map[uint64]int{}
		for k := 1; k < len(sorted); k++ {
			if sorted[k] == sorted[k-1] {
				dupCount[sorted[k]]++
			}
		}
		sorted = slices.Compact(sorted)
		if fresh {
			spo = make([]rdf.EncodedTriple, len(sorted))
			for i, k := range sorted {
				spo[i] = unpackSPO(k)
			}
			if len(dupCount) == 0 {
				return enc, spo
			}
		}
		// Slow path (duplicates or a pre-populated store): re-derive each
		// element's key in original order.
		existing := map[uint64]bool{}
		if !fresh {
			for _, p := range sorted {
				if snap.Contains(unpackSPO(p)) {
					existing[p] = true
				}
			}
		}
		batch = enc[:0]
		for _, e := range enc {
			p := packSPO(e)
			if existing[p] {
				continue
			}
			if n, dup := dupCount[p]; dup {
				if n < 0 {
					continue // a dup already claimed its slot
				}
				dupCount[p] = -1
			}
			batch = append(batch, e)
		}
		return batch, spo
	}
	type posTriple struct {
		e rdf.EncodedTriple
		i int32
	}
	byVal := make([]posTriple, len(enc))
	for i, e := range enc {
		byVal[i] = posTriple{e: e, i: int32(i)}
	}
	slices.SortFunc(byVal, func(x, y posTriple) int {
		if c := cmpSPO(x.e, y.e); c != 0 {
			return c
		}
		return int(x.i) - int(y.i)
	})
	drop := make([]bool, len(enc))
	for k := range byVal {
		switch {
		case k > 0 && byVal[k].e == byVal[k-1].e:
			drop[byVal[k].i] = true // later duplicate within the batch
		case fresh:
			spo = append(spo, byVal[k].e)
		case snap.Contains(byVal[k].e):
			drop[byVal[k].i] = true // already in the store
		}
	}
	batch = enc[:0]
	for i, e := range enc {
		if !drop[i] {
			batch = append(batch, e)
		}
	}
	return batch, spo
}

// applyBatch folds a duplicate-free batch of absent triples into a new
// snapshot: a bulk load into an empty store builds a columnar base from
// spo, the same triples in SPO order (see dedupBatch); anything else is
// an insert-only mutation of the overlay.
func applyBatch(snap *Snapshot, batch, spo []rdf.EncodedTriple) *Snapshot {
	if snap.Len() > 0 {
		return applyMutations(snap, batch, nil, uint64(len(batch)))
	}
	next := *snap
	next.generation = snap.generation + uint64(len(batch))
	next.base = buildColumnar(spo)
	next.deltaSPO, next.deltaPOS, next.deltaOSP, next.tail = nil, nil, nil, nil
	next.delSPO, next.delPOS, next.delOSP = nil, nil, nil
	return &next
}

// mergeSortedTriples merges a sorted duplicate-free run with a batch that
// is sorted on the fly (it arrives in no particular order).
func mergeSortedTriples(list, batch []rdf.EncodedTriple, cmp func(x, y rdf.EncodedTriple) int) []rdf.EncodedTriple {
	sorted := make([]rdf.EncodedTriple, len(batch))
	copy(sorted, batch)
	slices.SortFunc(sorted, cmp)
	if len(list) == 0 {
		return sorted
	}
	out := make([]rdf.EncodedTriple, 0, len(list)+len(sorted))
	i, j := 0, 0
	for i < len(list) && j < len(sorted) {
		if cmp(list[i], sorted[j]) < 0 {
			out = append(out, list[i])
			i++
		} else {
			out = append(out, sorted[j])
			j++
		}
	}
	out = append(out, list[i:]...)
	out = append(out, sorted[j:]...)
	return out
}

// --- Snapshot read API (immutable, lock-free) ---

// Dict exposes the term dictionary (shared with the live store; the
// dictionary itself is safe for concurrent use and only ever grows).
func (s *Snapshot) Dict() *rdf.Dict { return s.dict }

// Generation returns the store generation this snapshot was taken at.
func (s *Snapshot) Generation() uint64 { return s.generation }

// Len returns the number of distinct triples in the snapshot.
func (s *Snapshot) Len() int {
	return s.base.n - len(s.delSPO) + len(s.deltaSPO) + len(s.tail)
}

// TypeID returns the interned ID of rdf:type.
func (s *Snapshot) TypeID() rdf.ID { return s.typeID }

// SubClassOfID returns the interned ID of rdfs:subClassOf.
func (s *Snapshot) SubClassOfID() rdf.ID { return s.subClassID }

// LabelID returns the interned ID of rdfs:label.
func (s *Snapshot) LabelID() rdf.ID { return s.labelID }

// overlayEmpty reports whether every triple lives in the columnar base.
func (s *Snapshot) overlayEmpty() bool { return len(s.deltaSPO) == 0 && len(s.tail) == 0 }

// tombEmpty reports whether no base triple is masked by a tombstone.
func (s *Snapshot) tombEmpty() bool { return len(s.delSPO) == 0 }

// tombstoned reports whether a base-resident triple is masked by a
// delete — O(log tombstones).
func (s *Snapshot) tombstoned(e rdf.EncodedTriple) bool {
	d := s.delSPO
	if len(d) == 0 {
		return false
	}
	i := sort.Search(len(d), func(i int) bool { return cmpSPO(d[i], e) >= 0 })
	return i < len(d) && d[i] == e
}

// Contains reports whether the encoded triple is present — two binary
// searches plus a posting probe on the base (minus tombstones), O(log
// delta) on the sorted delta, and a bounded linear scan of the
// recent-adds tail.
func (s *Snapshot) Contains(e rdf.EncodedTriple) bool {
	if s.base.containsID(e.S, e.P, e.O) && !s.tombstoned(e) {
		return true
	}
	if d := s.deltaSPO; len(d) > 0 {
		i := sort.Search(len(d), func(i int) bool { return cmpSPO(d[i], e) >= 0 })
		if i < len(d) && d[i] == e {
			return true
		}
	}
	for _, t := range s.tail {
		if t == e {
			return true
		}
	}
	return false
}

// ContainsID reports whether the fully bound triple is present. It is the
// O(log n) membership primitive behind the query engine's fully-bound
// pattern joins.
func (s *Snapshot) ContainsID(sub, pred, obj rdf.ID) bool {
	return s.Contains(rdf.EncodedTriple{S: sub, P: pred, O: obj})
}

// ContainsTriple reports whether the term-level triple is present.
func (s *Snapshot) ContainsTriple(t rdf.Triple) bool {
	st, ok1 := s.dict.Lookup(t.S)
	pt, ok2 := s.dict.Lookup(t.P)
	ot, ok3 := s.dict.Lookup(t.O)
	return ok1 && ok2 && ok3 && s.ContainsID(st, pt, ot)
}

// Scan invokes fn on the snapshot's triples starting at position offset,
// for at most limit triples (limit <= 0 means all remaining), and returns
// the number visited. The order is fixed for one snapshot — live SPO base
// rows, then the sorted delta, then the tail — so consecutive windows
// partition the triple set, each triple exactly once; across snapshots
// positions mean nothing. Positioning is a binary search, never a walk
// over the skipped prefix. The iteration is over immutable data: the
// callback may freely call back into the live store, including its write
// methods.
func (s *Snapshot) Scan(offset, limit int, fn func(rdf.EncodedTriple) bool) int {
	if offset < 0 {
		offset = 0
	}
	n := 0
	visit := func(e rdf.EncodedTriple) bool {
		n++
		return fn(e) && n != limit
	}
	spo, dead := &s.base.spo, s.delSPO
	if live := len(spo.c) - len(dead); offset >= live {
		offset -= live
	} else {
		// The row at live position offset lies past exactly the t
		// tombstones that have at most offset live rows before them.
		// Row minus index never decreases along the sorted tombstones, so
		// t is a binary search and the row is offset+t.
		t := sort.Search(len(dead), func(j int) bool { return spo.rowOf(keySPO(dead[j]))-j > offset })
		dead = dead[t:]
		cur := permCursor{p: spo}
		for cur.seek(offset + t); cur.valid(); cur.advance() {
			a, b, c := cur.tuple()
			e := rdf.EncodedTriple{S: a, P: b, O: c}
			if len(dead) > 0 && dead[0] == e {
				dead = dead[1:]
				continue
			}
			if !visit(e) {
				return n
			}
		}
		offset = 0
	}
	for _, run := range [][]rdf.EncodedTriple{s.deltaSPO, s.tail} {
		if offset >= len(run) {
			offset -= len(run)
			continue
		}
		for _, e := range run[offset:] {
			if !visit(e) {
				return n
			}
		}
		offset = 0
	}
	return n
}

// Match iterates over every triple matching the pattern (s, p, o) where
// rdf.NoID is a wildcard. fn returning false stops the iteration early.
// Index-backed shapes enumerate the columnar base in sorted ID order,
// followed by any overlay matches; the all-wildcard shape is a full Scan.
// No lock is held: the callback may re-enter the store, including write
// methods.
func (s *Snapshot) Match(sub, pred, obj rdf.ID, fn func(rdf.EncodedTriple) bool) {
	if sub == rdf.NoID && pred == rdf.NoID && obj == rdf.NoID {
		s.Scan(0, 0, fn)
		return
	}
	baseFn := fn
	if !s.tombEmpty() {
		baseFn = func(e rdf.EncodedTriple) bool {
			if s.tombstoned(e) {
				return true // masked: skip, keep iterating
			}
			return fn(e)
		}
	}
	if !s.base.match(sub, pred, obj, baseFn) {
		return
	}
	if s.overlayEmpty() {
		return
	}
	if !s.deltaMatch(sub, pred, obj, fn) {
		return
	}
	for _, e := range s.tail {
		if matchesPattern(e, sub, pred, obj) && !fn(e) {
			return
		}
	}
}

// matchesPattern reports whether e matches the pattern (rdf.NoID is a
// wildcard).
func matchesPattern(e rdf.EncodedTriple, sub, pred, obj rdf.ID) bool {
	return (sub == rdf.NoID || e.S == sub) &&
		(pred == rdf.NoID || e.P == pred) &&
		(obj == rdf.NoID || e.O == obj)
}

// deltaPrefix returns the sub-range of a permutation-sorted delta whose
// first position equals a (and, when useB, whose second position equals
// b). key maps an entry to its permutation tuple.
func deltaPrefix(d []rdf.EncodedTriple, key func(rdf.EncodedTriple) (a, b, c rdf.ID), a, b rdf.ID, useB bool) []rdf.EncodedTriple {
	lo := sort.Search(len(d), func(i int) bool {
		xa, xb, _ := key(d[i])
		if xa != a {
			return xa > a
		}
		return !useB || xb >= b
	})
	hi := sort.Search(len(d), func(i int) bool {
		xa, xb, _ := key(d[i])
		if xa != a {
			return xa > a
		}
		return useB && xb > b
	})
	return d[lo:hi]
}

// deltaMatch iterates the sorted-delta entries matching the pattern (at
// least one position bound); reports whether iteration ran to completion.
func (s *Snapshot) deltaMatch(sub, pred, obj rdf.ID, fn func(rdf.EncodedTriple) bool) bool {
	var span []rdf.EncodedTriple
	switch {
	case sub != rdf.NoID && pred != rdf.NoID:
		span = deltaPrefix(s.deltaSPO, keySPO, sub, pred, true)
	case pred != rdf.NoID && obj != rdf.NoID:
		span = deltaPrefix(s.deltaPOS, keyPOS, pred, obj, true)
	case sub != rdf.NoID && obj != rdf.NoID:
		span = deltaPrefix(s.deltaOSP, keyOSP, obj, sub, true)
	case sub != rdf.NoID:
		span = deltaPrefix(s.deltaSPO, keySPO, sub, rdf.NoID, false)
	case pred != rdf.NoID:
		span = deltaPrefix(s.deltaPOS, keyPOS, pred, rdf.NoID, false)
	default:
		span = deltaPrefix(s.deltaOSP, keyOSP, obj, rdf.NoID, false)
	}
	for _, e := range span {
		if matchesPattern(e, sub, pred, obj) && !fn(e) {
			return false
		}
	}
	return true
}

// CountMatch returns the number of triples matching the pattern. It
// delegates to CardMatch, which answers from index offsets without
// walking matches.
func (s *Snapshot) CountMatch(sub, pred, obj rdf.ID) int {
	return s.CardMatch(sub, pred, obj)
}

// CardMatch returns the exact number of triples matching the pattern
// (rdf.NoID is a wildcard) from index offsets — O(log n) binary searches
// plus the bounded overlay, never a walk over matching triples. This is
// what the query planner's selectivity estimates are built on.
func (s *Snapshot) CardMatch(sub, pred, obj rdf.ID) int {
	n := s.base.card(sub, pred, obj)
	if !s.tombEmpty() {
		n -= s.tombCard(sub, pred, obj)
	}
	if s.overlayEmpty() {
		return n
	}
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		if n == 0 && s.Contains(rdf.EncodedTriple{S: sub, P: pred, O: obj}) {
			n = 1
		}
		return n
	case sub != rdf.NoID && pred != rdf.NoID:
		n += len(deltaPrefix(s.deltaSPO, keySPO, sub, pred, true))
	case pred != rdf.NoID && obj != rdf.NoID:
		n += len(deltaPrefix(s.deltaPOS, keyPOS, pred, obj, true))
	case sub != rdf.NoID && obj != rdf.NoID:
		n += len(deltaPrefix(s.deltaOSP, keyOSP, obj, sub, true))
	case sub != rdf.NoID:
		n += len(deltaPrefix(s.deltaSPO, keySPO, sub, rdf.NoID, false))
	case pred != rdf.NoID:
		n += len(deltaPrefix(s.deltaPOS, keyPOS, pred, rdf.NoID, false))
	case obj != rdf.NoID:
		n += len(deltaPrefix(s.deltaOSP, keyOSP, obj, rdf.NoID, false))
	default:
		return s.Len()
	}
	for _, e := range s.tail {
		if matchesPattern(e, sub, pred, obj) {
			n++
		}
	}
	return n
}

// tombCard returns the number of tombstoned base triples matching the
// pattern — the exact amount CardMatch must subtract from the base
// count. Same O(log) prefix searches as the sorted delta, over the
// tombstone arrays.
func (s *Snapshot) tombCard(sub, pred, obj rdf.ID) int {
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		if s.tombstoned(rdf.EncodedTriple{S: sub, P: pred, O: obj}) {
			return 1
		}
		return 0
	case sub != rdf.NoID && pred != rdf.NoID:
		return len(deltaPrefix(s.delSPO, keySPO, sub, pred, true))
	case pred != rdf.NoID && obj != rdf.NoID:
		return len(deltaPrefix(s.delPOS, keyPOS, pred, obj, true))
	case sub != rdf.NoID && obj != rdf.NoID:
		return len(deltaPrefix(s.delOSP, keyOSP, obj, sub, true))
	case sub != rdf.NoID:
		return len(deltaPrefix(s.delSPO, keySPO, sub, rdf.NoID, false))
	case pred != rdf.NoID:
		return len(deltaPrefix(s.delPOS, keyPOS, pred, rdf.NoID, false))
	case obj != rdf.NoID:
		return len(deltaPrefix(s.delOSP, keyOSP, obj, rdf.NoID, false))
	default:
		return len(s.delSPO)
	}
}

// overlaySingle extracts the single-wildcard values of a Postings-shaped
// pattern from the overlay, sorted.
func (s *Snapshot) overlaySingle(sub, pred, obj rdf.ID) []rdf.ID {
	out := extractSingle(s.deltaSPO, s.deltaPOS, s.deltaOSP, sub, pred, obj)
	tailStart := len(out)
	for _, e := range s.tail {
		if matchesPattern(e, sub, pred, obj) {
			out = append(out, pickSingle(e, sub, pred, obj))
		}
	}
	if tailStart < len(out) {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}

// pickSingle returns e's value at the pattern's single wildcard position.
func pickSingle(e rdf.EncodedTriple, sub, pred, obj rdf.ID) rdf.ID {
	switch {
	case obj == rdf.NoID:
		return e.O
	case sub == rdf.NoID:
		return e.S
	default:
		return e.P
	}
}

// extractSingle pulls the single-wildcard values of a Postings-shaped
// pattern out of one permutation-sorted triple-array family (the overlay
// deltas or the tombstones), sorted ascending.
func extractSingle(spo, pos, osp []rdf.EncodedTriple, sub, pred, obj rdf.ID) []rdf.ID {
	var span []rdf.EncodedTriple
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj == rdf.NoID:
		span = deltaPrefix(spo, keySPO, sub, pred, true)
	case sub == rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		span = deltaPrefix(pos, keyPOS, pred, obj, true)
	default: // (s, ?, o)
		span = deltaPrefix(osp, keyOSP, obj, sub, true)
	}
	var out []rdf.ID
	for _, e := range span {
		out = append(out, pickSingle(e, sub, pred, obj)) // span is sorted by the picked position
	}
	return out
}

// mergeSortedIDs merges two sorted duplicate-free ID lists.
func mergeSortedIDs(a, b []rdf.ID) []rdf.ID {
	out := make([]rdf.ID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Postings returns the sorted ID list for the single wildcard position of
// the pattern: the objects of (s, p, ?), the subjects of (?, p, o), or
// the predicates of (s, ?, o). ok is false unless exactly one position is
// rdf.NoID. When the overlay holds nothing for the key (the steady state)
// the result is a zero-copy view into the columnar index; otherwise it is
// a freshly merged slice. Either way it is safe to retain, never mutated,
// and must not be modified by the caller. Sortedness is what lets callers
// merge-intersect posting lists instead of probing one element at a time.
func (s *Snapshot) Postings(sub, pred, obj rdf.ID) (ids []rdf.ID, ok bool) {
	base, ok := s.base.postings(sub, pred, obj)
	if !ok {
		return nil, false
	}
	if !s.tombEmpty() {
		// Tombstoned postings are subtracted; keys no delete touches keep
		// the zero-copy view.
		if dead := extractSingle(s.delSPO, s.delPOS, s.delOSP, sub, pred, obj); len(dead) > 0 {
			base = subtractSorted(base, dead)
		}
	}
	if s.overlayEmpty() {
		return base, true
	}
	extra := s.overlaySingle(sub, pred, obj)
	if len(extra) == 0 {
		return base, true
	}
	return mergeSortedIDs(base, extra), true
}

// subtractSorted returns a with the members of b removed; both inputs
// are sorted and duplicate-free, and a is never mutated.
func subtractSorted(a, b []rdf.ID) []rdf.ID {
	out := make([]rdf.ID, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Objects returns the sorted object IDs of triples (sub, pred, ?) —
// shared immutable data, do not modify.
func (s *Snapshot) Objects(sub, pred rdf.ID) []rdf.ID {
	ids, _ := s.Postings(sub, pred, rdf.NoID)
	return ids
}

// Subjects returns the sorted subject IDs of triples (?, pred, obj) —
// shared immutable data, do not modify.
func (s *Snapshot) Subjects(pred, obj rdf.ID) []rdf.ID {
	ids, _ := s.Postings(rdf.NoID, pred, obj)
	return ids
}

// SubjectsOfType returns the subjects s with (s, rdf:type, class) — the
// paper's "URI u is of class c" relation.
func (s *Snapshot) SubjectsOfType(class rdf.ID) []rdf.ID {
	return s.Subjects(s.typeID, class)
}

// PredicatesOf returns the distinct predicate IDs on subject sub, sorted
// ascending. With an empty overlay it is a zero-copy view of the SPO
// index's second level; do not modify it.
func (s *Snapshot) PredicatesOf(sub rdf.ID) []rdf.ID {
	base := s.base.spo.bKeysOf(sub)
	var dead []rdf.EncodedTriple
	if !s.tombEmpty() {
		dead = deltaPrefix(s.delSPO, keySPO, sub, rdf.NoID, false)
	}
	if s.overlayEmpty() && len(dead) == 0 {
		return base
	}
	extra := deltaPrefix(s.deltaSPO, keySPO, sub, rdf.NoID, false)
	var tailPreds []rdf.ID
	for _, e := range s.tail {
		if e.S == sub {
			tailPreds = append(tailPreds, e.P)
		}
	}
	if len(extra) == 0 && len(tailPreds) == 0 && len(dead) == 0 {
		return base
	}
	merged := make([]rdf.ID, 0, len(base)+len(extra)+len(tailPreds))
	if len(dead) == 0 {
		merged = append(merged, base...)
	} else {
		// A base predicate stays live iff it has more base postings than
		// tombstones on this subject.
		for _, p := range base {
			if s.base.card(sub, p, rdf.NoID) > len(deltaPrefix(dead, keySPO, sub, p, true)) {
				merged = append(merged, p)
			}
		}
	}
	for _, e := range extra {
		merged = append(merged, e.P)
	}
	merged = append(merged, tailPreds...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	return dedupSorted(merged)
}

// PredicatesInto returns the distinct predicate IDs arriving at object
// obj as a freshly allocated, sorted, deduplicated slice (deterministic
// across calls).
func (s *Snapshot) PredicatesInto(obj rdf.ID) []rdf.ID {
	span := s.base.osp.cSpanOf(obj)
	out := make([]rdf.ID, 0, len(span))
	if !s.tombEmpty() && len(deltaPrefix(s.delOSP, keyOSP, obj, rdf.NoID, false)) > 0 {
		// Deletes touched this object: walk its base triples and keep the
		// predicates of the live ones.
		s.base.match(rdf.NoID, rdf.NoID, obj, func(e rdf.EncodedTriple) bool {
			if !s.tombstoned(e) {
				out = append(out, e.P)
			}
			return true
		})
	} else {
		out = append(out, span...)
	}
	if !s.overlayEmpty() {
		for _, e := range deltaPrefix(s.deltaOSP, keyOSP, obj, rdf.NoID, false) {
			out = append(out, e.P)
		}
		for _, e := range s.tail {
			if e.O == obj {
				out = append(out, e.P)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return dedupSorted(out)
}

// Triple decodes e back to term form.
func (s *Snapshot) Triple(e rdf.EncodedTriple) rdf.Triple { return s.dict.Decode(e) }

// Label returns the rdfs:label of the node if one exists, otherwise the
// IRI's local name.
func (s *Snapshot) Label(id rdf.ID) string {
	for _, o := range s.Objects(id, s.labelID) {
		if t, ok := s.dict.TermOK(o); ok && t.IsLiteral() {
			return t.Value
		}
	}
	if t, ok := s.dict.TermOK(id); ok {
		return t.LocalName()
	}
	return ""
}

// --- Store read API: one atomic snapshot load per call ---

// Len returns the number of distinct triples.
func (s *Store) Len() int { return s.Snapshot().Len() }

// Label returns the rdfs:label of the node if one exists, otherwise the
// IRI's local name (Section 3.1: "eLinda makes extensive use of standard
// rdfs:label properties").
func (s *Store) Label(id rdf.ID) string { return s.Snapshot().Label(id) }
