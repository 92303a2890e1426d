package rdf

import (
	"cmp"
	"hash/maphash"
	"slices"
	"sync"
)

// provisionalBase is the first provisional ID a DictBatch hands out. The
// dictionary's canonical IDs stay far below it (half a billion terms), so
// the two ranges never collide and Canonical can tell them apart by a
// single compare. It is also below the SPARQL executor's query-local
// overflow range (1<<31).
const provisionalBase ID = 1 << 29

// batchEntry is one new term discovered during a batch: its local index
// within the shard and the smallest occurrence key seen so far.
type batchEntry struct {
	local int32
	pos   uint64
}

// batchShard mirrors a dictionary shard for terms that are new in this
// batch. terms[local] holds the cloned term so chunk buffers are never
// pinned past the batch.
type batchShard struct {
	mu      sync.Mutex
	entries map[Term]batchEntry
	terms   []Term
	firsts  []uint64 // firsts[local] = smallest occurrence key
}

// DictBatch is a parallel bulk interner layered over a Dict. Workers call
// Intern concurrently with monotone per-worker occurrence keys; terms the
// dictionary already knows resolve to their canonical IDs immediately,
// while new terms receive provisional IDs. Commit then assigns the new
// terms canonical dense IDs in first-occurrence order — the order a
// single-threaded pass over the input would have produced — so a parallel
// load yields a dictionary (and therefore a store snapshot) that is
// byte-identical at any worker count, including worker count one.
//
// A batch is single-use: after Commit only Canonical may be called, and
// the batch holds nothing but the provisional→canonical mapping.
// Nothing is published into the Dict until Commit, so abandoning a batch
// on error leaves the dictionary untouched.
type DictBatch struct {
	d      *Dict
	base   *dictRead
	shards [dictShardCount]batchShard
	remap  [dictShardCount][]ID // filled by Commit: local index → canonical ID
}

// NewBatch starts a bulk-intern batch. It publishes the dictionary's read
// side first so every existing term resolves lock-free during the batch.
func (d *Dict) NewBatch() *DictBatch {
	d.PublishReads()
	b := &DictBatch{d: d, base: d.read.Load()}
	for i := range b.shards {
		b.shards[i].entries = map[Term]batchEntry{}
	}
	return b
}

// Intern resolves t to a canonical ID when the dictionary already knows
// it, or to a provisional ID otherwise. pos is the occurrence key — any
// value that orders occurrences the way a serial pass over the input
// would visit them (the streaming loader packs chunk index, statement
// index and triple position). Safe for concurrent use.
func (b *DictBatch) Intern(pos uint64, t Term) ID {
	if id, ok := b.base.byVal[t]; ok {
		return id
	}
	si := maphash.String(b.d.seed, t.Value) & dictShardMask
	sh := &b.shards[si]
	sh.mu.Lock()
	e, ok := sh.entries[t]
	if ok {
		if pos < sh.firsts[e.local] {
			sh.firsts[e.local] = pos
		}
	} else {
		e = batchEntry{local: int32(len(sh.terms)), pos: pos}
		clone := cloneTerm(t)
		sh.entries[clone] = e
		sh.terms = append(sh.terms, clone)
		sh.firsts = append(sh.firsts, pos)
	}
	sh.mu.Unlock()
	return provisionalBase + ID(e.local)<<dictShardBits + ID(si)
}

// dictShardBits is log2(dictShardCount), used to pack (local, shard)
// pairs into provisional IDs.
const dictShardBits = 6

// Commit sorts the batch's new terms by first occurrence and publishes
// them into the dictionary in that canonical order with one read-map
// rebuild, recording the provisional→canonical mapping for Canonical. A
// batch term that a plain Dict.Intern added after NewBatch keeps the ID
// it got there. It returns the number of terms added.
func (b *DictBatch) Commit() int {
	type pending struct {
		pos   uint64
		shard int32
		local int32
	}
	var all []pending
	for si := range b.shards {
		sh := &b.shards[si]
		sh.entries = nil // Intern is over; free it before publish's map
		b.remap[si] = make([]ID, len(sh.terms))
		for local := range sh.terms {
			all = append(all, pending{pos: sh.firsts[local], shard: int32(si), local: int32(local)})
		}
	}
	// Occurrence keys are unique per (statement, position), so this is a
	// deterministic total order regardless of worker interleaving.
	slices.SortFunc(all, func(x, y pending) int { return cmp.Compare(x.pos, y.pos) })
	// The shards hold clones the dictionary may own, so the terms go in
	// without a defensive copy.
	n := b.d.publish(len(all), len(b.base.byVal),
		func(i int) Term { return b.shards[all[i].shard].terms[all[i].local] },
		func(i int, id ID) { b.remap[all[i].shard][all[i].local] = id })
	for si := range b.shards {
		b.shards[si].terms, b.shards[si].firsts = nil, nil
	}
	return n
}

// Canonical maps an ID returned by Intern to its post-Commit canonical
// ID. IDs below the provisional range pass through unchanged.
func (b *DictBatch) Canonical(id ID) ID {
	if id < provisionalBase {
		return id
	}
	p := id - provisionalBase
	return b.remap[p&dictShardMask][p>>dictShardBits]
}

// CanonicalTriple remaps all three components of a provisional triple.
func (b *DictBatch) CanonicalTriple(e EncodedTriple) EncodedTriple {
	return EncodedTriple{S: b.Canonical(e.S), P: b.Canonical(e.P), O: b.Canonical(e.O)}
}
