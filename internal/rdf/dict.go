package rdf

import (
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ID is a compact dictionary identifier for a term. ID 0 is reserved and
// never assigned, so it can serve as "no term" in index structures.
type ID uint32

// NoID is the reserved null identifier.
const NoID ID = 0

const (
	// dictShardCount is the number of write shards (power of two). Terms
	// hash to a shard by their lexical value, so concurrent Intern calls
	// on distinct terms almost never contend on the same lock.
	dictShardCount = 64
	dictShardMask  = dictShardCount - 1
)

// dictShard is one write shard: a small locked map holding every term
// whose value hashes to it. Shards are the source of truth for membership
// until entries are folded into the published read side.
type dictShard struct {
	mu    sync.Mutex
	byVal map[Term]ID
}

// dictRead is the atomically published read side: a frozen map covering
// every term published so far, plus the dense id→term arena. Both are
// immutable once published (the arena's backing array is append-only and
// readers never index past their header's length), so lookups and decodes
// need no lock at all.
type dictRead struct {
	byVal map[Term]ID
	byID  []Term // byID[i-1] is the term with ID i
}

// Dict interns RDF terms, assigning each distinct term a dense ID starting
// at 1 in first-intern order. It is safe for concurrent use and built to
// scale with cores: the common hit takes zero locks (one lookup in the
// published read map), a miss takes one per-shard lock, and only the final
// ID allocation serializes on a tiny critical section. Term/TermOK decode
// through the published arena without locking. The store keeps one Dict
// per dataset; dictionary encoding is what lets the decomposer's aggregate
// indexes fit in memory.
//
// Terms are cloned on insert, so callers may intern terms whose strings
// alias large parse buffers without pinning those buffers.
type Dict struct {
	seed   maphash.Seed
	shards [dictShardCount]dictShard
	read   atomic.Pointer[dictRead]

	// mu serializes ID allocation, arena appends and read-side
	// publication. It is only taken on the first intern of a new term.
	mu    sync.Mutex
	arena []Term // master id→term table, append-only under mu
	// stale counts terms allocated since the read map was last rebuilt;
	// those are findable only through their shard until the next rebuild.
	stale int
}

// NewDict returns an empty dictionary with capacity hint n terms.
func NewDict(n int) *Dict {
	d := &Dict{seed: maphash.MakeSeed()}
	hint := n / dictShardCount
	for i := range d.shards {
		d.shards[i].byVal = make(map[Term]ID, hint)
	}
	d.arena = make([]Term, 0, n)
	d.read.Store(&dictRead{byVal: map[Term]ID{}})
	return d
}

// shardOf hashes the term's lexical value to a shard. Terms sharing a
// value but differing in kind, language or datatype land on the same
// shard, which is harmless: the shard map still keys on the full term.
func (d *Dict) shardOf(t Term) *dictShard {
	return &d.shards[maphash.String(d.seed, t.Value)&dictShardMask]
}

// cloneTerm deep-copies the term's strings so the dictionary never
// retains memory owned by a caller's parse buffer.
func cloneTerm(t Term) Term {
	return Term{
		Kind:     t.Kind,
		Value:    strings.Clone(t.Value),
		Lang:     strings.Clone(t.Lang),
		Datatype: strings.Clone(t.Datatype),
	}
}

// Intern returns the ID for t, assigning a fresh one if t is new.
func (d *Dict) Intern(t Term) ID {
	if id, ok := d.read.Load().byVal[t]; ok {
		return id
	}
	sh := d.shardOf(t)
	sh.mu.Lock()
	id, ok := sh.byVal[t]
	if !ok {
		// Re-check the read side now that the shard lock is held: a
		// concurrent publish may have folded this shard's entries
		// into a fresh read map (published before it released the shard
		// lock we just acquired) and cleared the shard.
		if pubID, pub := d.read.Load().byVal[t]; pub {
			sh.mu.Unlock()
			return pubID
		}
		key := cloneTerm(t)
		id = d.alloc(key)
		sh.byVal[key] = id
	}
	sh.mu.Unlock()
	return id
}

// alloc assigns the next dense ID to a new term (whose strings the
// dictionary must already own) and republishes the read arena so decodes
// of the new ID are immediately lock-free. The caller must hold the
// term's shard lock (shard → allocation lock order is consistent
// everywhere, so this cannot deadlock).
func (d *Dict) alloc(t Term) ID {
	d.mu.Lock()
	d.arena = append(d.arena, t)
	id := ID(len(d.arena))
	old := d.read.Load()
	next := &dictRead{byVal: old.byVal, byID: d.arena}
	d.stale++
	if d.stale >= len(old.byVal)/2+1024 {
		// Rebuild the frozen read map from the arena so recent terms get
		// lock-free hits again. The geometric threshold keeps the total
		// rebuild work linear in the dictionary size.
		next.byVal = readMap(d.arena, len(d.arena))
		d.stale = 0
	}
	d.read.Store(next)
	d.mu.Unlock()
	return id
}

// readMap indexes the arena (arena[i] has ID i+1) in a map sized for n
// terms.
func readMap(arena []Term, n int) map[Term]ID {
	m := make(map[Term]ID, n)
	for i, t := range arena {
		m[t] = ID(i + 1)
	}
	return m
}

// PublishReads rebuilds the read map immediately so every interned term
// is findable without a shard lock, and empties the write shards — their
// entries are now redundant with the published map, so dropping them
// keeps the dictionary at one map's worth of memory instead of two.
// Bulk loaders call this once per batch; ad-hoc Interns fold in lazily.
func (d *Dict) PublishReads() { d.publish(0, 0, nil, nil) }

// publish is the one locked read-side rebuild, shared by PublishReads
// and DictBatch.Commit. Under every shard lock (in index order), then mu
// — the shard-before-mu order Intern uses, so the two cannot deadlock —
// it appends n distinct new terms, term(0) … term(n-1), to the arena in
// that order, builds one read map over the whole arena, publishes it and
// empties the write shards. assign(i, id) receives term(i)'s ID. A new
// term that a plain Intern added after the read map of size known was
// published keeps that ID; the probe for it runs only when the arena has
// grown past known. The terms' strings must already be owned by the
// dictionary. It returns the number of terms appended.
func (d *Dict) publish(n, known int, term func(i int) Term, assign func(i int, id ID)) int {
	for i := range d.shards {
		d.shards[i].mu.Lock()
	}
	defer func() {
		for i := range d.shards {
			clear(d.shards[i].byVal)
			d.shards[i].mu.Unlock()
		}
	}()
	d.mu.Lock()
	defer d.mu.Unlock()
	before := len(d.arena)
	probe := before > known
	m := readMap(d.arena, before+n)
	d.arena = slices.Grow(d.arena, n)
	for i := 0; i < n; i++ {
		t := term(i)
		if probe {
			if id, ok := m[t]; ok {
				assign(i, id)
				continue
			}
		}
		d.arena = append(d.arena, t)
		m[t] = ID(len(d.arena))
		assign(i, ID(len(d.arena)))
	}
	d.read.Store(&dictRead{byVal: m, byID: d.arena})
	d.stale = 0
	return len(d.arena) - before
}

// Lookup returns the ID for t without inserting. The second result reports
// whether t is interned.
func (d *Dict) Lookup(t Term) (ID, bool) {
	if id, ok := d.read.Load().byVal[t]; ok {
		return id, true
	}
	sh := d.shardOf(t)
	sh.mu.Lock()
	id, ok := sh.byVal[t]
	sh.mu.Unlock()
	if !ok {
		// The entry may have moved shard→read under a concurrent
		// publish; the republished map is visible once the shard lock
		// we just held has been released by it.
		id, ok = d.read.Load().byVal[t]
	}
	return id, ok
}

// LookupIRI is a convenience wrapper around Lookup(NewIRI(iri)).
func (d *Dict) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(NewIRI(iri))
}

// Term returns the term for id. It panics on NoID or an unassigned ID,
// which always indicates a programming error in index code.
func (d *Dict) Term(id ID) Term {
	byID := d.read.Load().byID
	if id == NoID || int(id) > len(byID) {
		panic(fmt.Sprintf("rdf: dictionary lookup of invalid ID %d (size %d)", id, len(byID)))
	}
	return byID[id-1]
}

// TermOK is like Term but reports failure instead of panicking.
func (d *Dict) TermOK(id ID) (Term, bool) {
	byID := d.read.Load().byID
	if id == NoID || int(id) > len(byID) {
		return Term{}, false
	}
	return byID[id-1], true
}

// Len returns the number of interned terms.
func (d *Dict) Len() int {
	return len(d.read.Load().byID)
}

// Terms returns the dense id→term arena (Terms()[i] is the term with ID
// i+1). The slice is shared immutable data — callers must not modify it.
// This is the bulk export the binary snapshot writer dumps.
func (d *Dict) Terms() []Term {
	return d.read.Load().byID
}

// NewDictFromTerms rebuilds a dictionary from a dense id→term arena, with
// terms[i] becoming ID i+1 — the inverse of Terms(), used when loading a
// binary snapshot. It fails on zero or duplicate terms rather than build
// a corrupt dictionary.
func NewDictFromTerms(terms []Term) (*Dict, error) {
	d := NewDict(len(terms))
	m := make(map[Term]ID, len(terms))
	for i, t := range terms {
		if t.IsZero() {
			return nil, fmt.Errorf("rdf: dictionary arena entry %d is the zero term", i+1)
		}
		if prev, dup := m[t]; dup {
			return nil, fmt.Errorf("rdf: dictionary arena duplicates term %s (IDs %d and %d)", t, prev, i+1)
		}
		m[t] = ID(i + 1)
	}
	//lint:ignore lockbalance d is freshly built by NewDict above and not yet shared with any reader
	d.arena = append(d.arena, terms...)
	// The published read map covers every term, so the write shards stay
	// empty: they only ever hold terms interned since the last publish.
	//lint:ignore lockbalance d is freshly built by NewDict above and not yet shared with any reader
	d.read.Store(&dictRead{byVal: m, byID: d.arena})
	return d, nil
}

// EncodedTriple is a dictionary-encoded triple.
type EncodedTriple struct {
	S, P, O ID
}

// Encode interns all three components of t.
func (d *Dict) Encode(t Triple) EncodedTriple {
	return EncodedTriple{S: d.Intern(t.S), P: d.Intern(t.P), O: d.Intern(t.O)}
}

// Decode maps an encoded triple back to its term form.
func (d *Dict) Decode(e EncodedTriple) Triple {
	return Triple{S: d.Term(e.S), P: d.Term(e.P), O: d.Term(e.O)}
}
