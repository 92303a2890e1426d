package store

import (
	"sort"

	"elinda/internal/rdf"
)

// permIndex is one permutation index of a snapshot in columnar form: a
// two-level offset index over a contiguous sorted ID array. For the SPO
// permutation, aKeys holds the distinct subjects in ascending order,
// bKeys[aOff[i]:aOff[i+1]] the sorted predicates of aKeys[i], and
// c[bOff[j]:bOff[j+1]] the sorted posting list of bKeys[j]. The
// first-level lookup is one load from aPos, the second a binary search;
// posting lists are returned as sub-slices of c without copying. The
// structure is immutable after construction.
type permIndex struct {
	aKeys []rdf.ID
	aOff  []uint32 // len(aKeys)+1, offsets into bKeys
	bKeys []rdf.ID
	bOff  []uint32 // len(bKeys)+1, offsets into c
	c     []rdf.ID
	// aPos is the dense first-level position index: aPos[id] is the
	// group index of key id plus one, 0 when id is not a key. It spans
	// [0, last key] — 4 bytes per dictionary term at most — and is
	// derived from aKeys, never persisted.
	aPos []uint32
}

// findA returns the group index of first-level key a in O(1).
func (p *permIndex) findA(a rdf.ID) (int, bool) {
	if int(a) >= len(p.aPos) || p.aPos[a] == 0 {
		return 0, false
	}
	return int(p.aPos[a]) - 1, true
}

// densePositions builds a permIndex's aPos from its sorted first-level
// keys.
func densePositions(aKeys []rdf.ID) []uint32 {
	if len(aKeys) == 0 {
		return nil
	}
	pos := make([]uint32, int(aKeys[len(aKeys)-1])+1)
	for i, k := range aKeys {
		pos[k] = uint32(i) + 1
	}
	return pos
}

// findB binary-searches the second-level keys of group ai.
func (p *permIndex) findB(ai int, b rdf.ID) (int, bool) {
	lo, hi := int(p.aOff[ai]), int(p.aOff[ai+1])
	j := lo + sort.Search(hi-lo, func(k int) bool { return p.bKeys[lo+k] >= b })
	return j, j < hi && p.bKeys[j] == b
}

// postings returns the sorted third-position IDs of (a, b) as a sub-slice
// of the index (nil when absent). Callers must not modify it.
func (p *permIndex) postings(a, b rdf.ID) []rdf.ID {
	ai, ok := p.findA(a)
	if !ok {
		return nil
	}
	j, ok := p.findB(ai, b)
	if !ok {
		return nil
	}
	return p.c[p.bOff[j]:p.bOff[j+1]]
}

// cardA returns the number of triples whose first position is a.
func (p *permIndex) cardA(a rdf.ID) int {
	ai, ok := p.findA(a)
	if !ok {
		return 0
	}
	return int(p.bOff[p.aOff[ai+1]]) - int(p.bOff[p.aOff[ai]])
}

// bKeysOf returns the sorted distinct second-position keys of a as a
// sub-slice (nil when absent). Callers must not modify it.
func (p *permIndex) bKeysOf(a rdf.ID) []rdf.ID {
	ai, ok := p.findA(a)
	if !ok {
		return nil
	}
	return p.bKeys[p.aOff[ai]:p.aOff[ai+1]]
}

// cSpanOf returns the contiguous third-position span of every triple whose
// first position is a — e.g. for the OSP index, all predicates arriving at
// object a. The span is sorted per (a,b) group, not globally.
func (p *permIndex) cSpanOf(a rdf.ID) []rdf.ID {
	ai, ok := p.findA(a)
	if !ok {
		return nil
	}
	return p.c[p.bOff[p.aOff[ai]]:p.bOff[p.aOff[ai+1]]]
}

// matchA iterates every (b, c) pair of group a in sorted order. fn
// returning false stops the iteration; matchA reports whether iteration
// ran to completion.
func (p *permIndex) matchA(a rdf.ID, fn func(b, c rdf.ID) bool) bool {
	ai, ok := p.findA(a)
	if !ok {
		return true
	}
	for j := int(p.aOff[ai]); j < int(p.aOff[ai+1]); j++ {
		b := p.bKeys[j]
		for _, c := range p.c[p.bOff[j]:p.bOff[j+1]] {
			if !fn(b, c) {
				return false
			}
		}
	}
	return true
}

// permBuilder assembles a permIndex from (a, b, c) tuples arriving in
// strictly increasing lexicographic order.
type permBuilder struct{ idx permIndex }

func newPermBuilder(nTriples int) *permBuilder {
	b := &permBuilder{}
	b.idx.c = make([]rdf.ID, 0, nTriples)
	// Key arrays grow with the number of distinct groups; seeding them at
	// a quarter of the triple count skips most of the append doublings.
	hint := nTriples/4 + 8
	b.idx.aKeys = make([]rdf.ID, 0, hint)
	b.idx.aOff = make([]uint32, 0, hint)
	b.idx.bKeys = make([]rdf.ID, 0, hint)
	b.idx.bOff = make([]uint32, 0, hint)
	return b
}

func (pb *permBuilder) add(a, b, c rdf.ID) {
	idx := &pb.idx
	if n := len(idx.aKeys); n == 0 || idx.aKeys[n-1] != a {
		idx.aKeys = append(idx.aKeys, a)
		idx.aOff = append(idx.aOff, uint32(len(idx.bKeys)))
		idx.bKeys = append(idx.bKeys, b)
		idx.bOff = append(idx.bOff, uint32(len(idx.c)))
	} else if m := len(idx.bKeys); idx.bKeys[m-1] != b {
		idx.bKeys = append(idx.bKeys, b)
		idx.bOff = append(idx.bOff, uint32(len(idx.c)))
	}
	idx.c = append(idx.c, c)
}

func (pb *permBuilder) finish() permIndex {
	pb.idx.aOff = append(pb.idx.aOff, uint32(len(pb.idx.bKeys)))
	pb.idx.bOff = append(pb.idx.bOff, uint32(len(pb.idx.c)))
	pb.idx.aPos = densePositions(pb.idx.aKeys)
	return pb.idx
}

// permCursor walks a permIndex's (a, b, c) tuples in sorted order. It
// relies on the invariant that every group is non-empty.
type permCursor struct {
	p          *permIndex
	ai, bi, ci int
}

func (cur *permCursor) valid() bool { return cur.ci < len(cur.p.c) }

func (cur *permCursor) tuple() (a, b, c rdf.ID) {
	return cur.p.aKeys[cur.ai], cur.p.bKeys[cur.bi], cur.p.c[cur.ci]
}

func (cur *permCursor) advance() {
	cur.ci++
	if cur.ci >= len(cur.p.c) {
		return
	}
	if uint32(cur.ci) >= cur.p.bOff[cur.bi+1] {
		cur.bi++
		if uint32(cur.bi) >= cur.p.aOff[cur.ai+1] {
			cur.ai++
		}
	}
}

// seek positions the cursor on row ci by binary search on the offset
// arrays; ci == len(p.c) leaves it invalid.
func (cur *permCursor) seek(ci int) {
	p := cur.p
	cur.ci = ci
	if ci >= len(p.c) {
		return
	}
	cur.bi = sort.Search(len(p.bKeys), func(j int) bool { return int(p.bOff[j+1]) > ci })
	cur.ai = sort.Search(len(p.aKeys), func(i int) bool { return int(p.aOff[i+1]) > cur.bi })
}

// rowOf returns the row of the tuple (a, b, c), which must be present.
func (p *permIndex) rowOf(a, b, c rdf.ID) int {
	ai, _ := p.findA(a)
	j, _ := p.findB(ai, b)
	lo, hi := int(p.bOff[j]), int(p.bOff[j+1])
	return lo + sort.Search(hi-lo, func(k int) bool { return p.c[lo+k] >= c })
}

// keySPO/keyPOS/keyOSP map an encoded triple to the (a, b, c) tuple of the
// corresponding permutation.
func keySPO(e rdf.EncodedTriple) (a, b, c rdf.ID) { return e.S, e.P, e.O }
func keyPOS(e rdf.EncodedTriple) (a, b, c rdf.ID) { return e.P, e.O, e.S }
func keyOSP(e rdf.EncodedTriple) (a, b, c rdf.ID) { return e.O, e.S, e.P }

// cmpIDs3 compares two (a, b, c) tuples lexicographically.
func cmpIDs3(a1, b1, c1, a2, b2, c2 rdf.ID) int {
	switch {
	case a1 != a2:
		if a1 < a2 {
			return -1
		}
		return 1
	case b1 != b2:
		if b1 < b2 {
			return -1
		}
		return 1
	case c1 != c2:
		if c1 < c2 {
			return -1
		}
		return 1
	}
	return 0
}

func cmpSPO(x, y rdf.EncodedTriple) int { return cmpIDs3(x.S, x.P, x.O, y.S, y.P, y.O) }
func cmpPOS(x, y rdf.EncodedTriple) int { return cmpIDs3(x.P, x.O, x.S, y.P, y.O, y.S) }
func cmpOSP(x, y rdf.EncodedTriple) int { return cmpIDs3(x.O, x.S, x.P, y.O, y.S, y.P) }

// buildPerm packs triples already sorted in the permutation's order into
// columnar form. sorted must be duplicate-free.
func buildPerm(sorted []rdf.EncodedTriple, key func(rdf.EncodedTriple) (a, b, c rdf.ID)) permIndex {
	pb := newPermBuilder(len(sorted))
	for _, e := range sorted {
		pb.add(key(e))
	}
	return pb.finish()
}

// mergePerm is the one fold: it linearly merges a base permutation,
// minus a sorted run of tombstoned base rows, plus a sorted duplicate-free
// delta (both runs in the same permutation order) into a new columnar
// index — O(base+delta), no re-sort. A delta entry may equal a tombstoned
// row (deleted, then re-inserted): the row is dropped, the entry kept.
func mergePerm(base *permIndex, tomb, delta []rdf.EncodedTriple, key func(rdf.EncodedTriple) (a, b, c rdf.ID)) permIndex {
	pb := newPermBuilder(len(base.c) - len(tomb) + len(delta))
	di := 0
	for cur := (permCursor{p: base}); cur.valid(); cur.advance() {
		a1, b1, c1 := cur.tuple()
		if len(tomb) > 0 {
			if a2, b2, c2 := key(tomb[0]); a1 == a2 && b1 == b2 && c1 == c2 {
				tomb = tomb[1:]
				continue
			}
		}
		for ; di < len(delta); di++ {
			a2, b2, c2 := key(delta[di])
			if cmpIDs3(a1, b1, c1, a2, b2, c2) < 0 {
				break
			}
			pb.add(a2, b2, c2)
		}
		pb.add(a1, b1, c1)
	}
	for ; di < len(delta); di++ {
		pb.add(key(delta[di]))
	}
	return pb.finish()
}

// packBits is the per-position width of the packed sort key: three IDs
// fit one uint64 whenever every ID is below 1<<21 (two million distinct
// terms), which covers everything short of web-scale dictionaries.
const (
	packBits = 21
	packMax  = rdf.ID(1) << packBits
	packMask = uint64(packMax - 1)
)

// packSPO packs a triple into one uint64 sort key in SPO order; every ID
// must be below packMax.
func packSPO(e rdf.EncodedTriple) uint64 {
	return uint64(e.S)<<(2*packBits) | uint64(e.P)<<packBits | uint64(e.O)
}

// unpackSPO inverts packSPO.
func unpackSPO(k uint64) rdf.EncodedTriple {
	return rdf.EncodedTriple{S: rdf.ID(k >> (2 * packBits)), P: rdf.ID(k>>packBits) & rdf.ID(packMask), O: rdf.ID(k) & rdf.ID(packMask)}
}

// maxIDIn returns the largest ID appearing in the batch.
func maxIDIn(log []rdf.EncodedTriple) rdf.ID {
	var m rdf.ID
	for _, e := range log {
		if e.S > m {
			m = e.S
		}
		if e.P > m {
			m = e.P
		}
		if e.O > m {
			m = e.O
		}
	}
	return m
}

// columnar is the frozen index core of a snapshot: the three permutation
// indexes as flat sorted arrays covering one duplicate-free triple set.
// It is immutable after construction.
type columnar struct {
	n   int // triples covered
	spo permIndex
	pos permIndex
	osp permIndex
	// stats is the planner statistics bundle, computed once per base
	// build (see planstats.go) and immutable like everything else here.
	stats *PlanStats
}

// buildColumnar packs SPO-sorted, duplicate-free triples into the three
// columnar permutation indexes — the bulk load into an empty store; every
// later base comes out of mergePerm. The SPO order is the batch's one
// sort (dedupBatch's); the other two orders are derived from it by stable
// counting passes. OSP is a pass by object over SPO order, which leaves
// each object's (S, P) tuples in order; POS is a pass by predicate over
// OSP order, which leaves each predicate's (O, S) tuples in order. spo's
// array is reused as scratch.
func buildColumnar(spo []rdf.EncodedTriple) *columnar {
	col := &columnar{n: len(spo), spo: buildPerm(spo, keySPO)}
	limit := maxIDIn(spo) + 1
	osp := countingSort(make([]rdf.EncodedTriple, len(spo)), spo, limit, func(e rdf.EncodedTriple) rdf.ID { return e.O })
	col.osp = buildPerm(osp, keyOSP)
	col.pos = buildPerm(countingSort(spo, osp, limit, func(e rdf.EncodedTriple) rdf.ID { return e.P }), keyPOS)
	// Planner statistics are part of every base build: one linear pass.
	col.stats = computePlanStats(col)
	return col
}

// countingSort stably reorders src into dst by key, whose values are
// below limit, and returns dst.
func countingSort(dst, src []rdf.EncodedTriple, limit rdf.ID, key func(rdf.EncodedTriple) rdf.ID) []rdf.EncodedTriple {
	next := make([]uint32, int(limit)+1)
	for _, e := range src {
		next[key(e)+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	for _, e := range src {
		k := key(e)
		dst[next[k]] = e
		next[k]++
	}
	return dst
}

// containsID reports membership via the SPO index.
func (c *columnar) containsID(sub, pred, obj rdf.ID) bool {
	return containsSorted(c.spo.postings(sub, pred), obj)
}

// match iterates the columnar triples matching the pattern (at least one
// position bound); reports whether iteration ran to completion.
func (c *columnar) match(sub, pred, obj rdf.ID, fn func(rdf.EncodedTriple) bool) bool {
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		if c.containsID(sub, pred, obj) {
			return fn(rdf.EncodedTriple{S: sub, P: pred, O: obj})
		}
	case sub != rdf.NoID && pred != rdf.NoID:
		for _, o := range c.spo.postings(sub, pred) {
			if !fn(rdf.EncodedTriple{S: sub, P: pred, O: o}) {
				return false
			}
		}
	case sub != rdf.NoID && obj != rdf.NoID:
		for _, p := range c.osp.postings(obj, sub) {
			if !fn(rdf.EncodedTriple{S: sub, P: p, O: obj}) {
				return false
			}
		}
	case pred != rdf.NoID && obj != rdf.NoID:
		for _, sid := range c.pos.postings(pred, obj) {
			if !fn(rdf.EncodedTriple{S: sid, P: pred, O: obj}) {
				return false
			}
		}
	case sub != rdf.NoID:
		return c.spo.matchA(sub, func(p, o rdf.ID) bool {
			return fn(rdf.EncodedTriple{S: sub, P: p, O: o})
		})
	case pred != rdf.NoID:
		return c.pos.matchA(pred, func(o, sid rdf.ID) bool {
			return fn(rdf.EncodedTriple{S: sid, P: pred, O: o})
		})
	default: // obj bound
		return c.osp.matchA(obj, func(sid, p rdf.ID) bool {
			return fn(rdf.EncodedTriple{S: sid, P: p, O: obj})
		})
	}
	return true
}

// card counts matches from index offsets — O(log n), never a walk.
func (c *columnar) card(sub, pred, obj rdf.ID) int {
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		if c.containsID(sub, pred, obj) {
			return 1
		}
		return 0
	case sub != rdf.NoID && pred != rdf.NoID:
		return len(c.spo.postings(sub, pred))
	case pred != rdf.NoID && obj != rdf.NoID:
		return len(c.pos.postings(pred, obj))
	case sub != rdf.NoID && obj != rdf.NoID:
		return len(c.osp.postings(obj, sub))
	case sub != rdf.NoID:
		return c.spo.cardA(sub)
	case pred != rdf.NoID:
		return c.pos.cardA(pred)
	case obj != rdf.NoID:
		return c.osp.cardA(obj)
	default:
		return c.n
	}
}

// postings returns the zero-copy posting list for a single-wildcard
// pattern shape; ok is false unless exactly one position is rdf.NoID.
func (c *columnar) postings(sub, pred, obj rdf.ID) (ids []rdf.ID, ok bool) {
	switch {
	case sub != rdf.NoID && pred != rdf.NoID && obj == rdf.NoID:
		return c.spo.postings(sub, pred), true
	case sub == rdf.NoID && pred != rdf.NoID && obj != rdf.NoID:
		return c.pos.postings(pred, obj), true
	case sub != rdf.NoID && pred == rdf.NoID && obj != rdf.NoID:
		return c.osp.postings(obj, sub), true
	default:
		return nil, false
	}
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(ids []rdf.ID) []rdf.ID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// containsSorted reports whether id occurs in the sorted posting list.
func containsSorted(list []rdf.ID, id rdf.ID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= id })
	return i < len(list) && list[i] == id
}
