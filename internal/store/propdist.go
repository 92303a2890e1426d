package store

import (
	"cmp"
	"slices"

	"elinda/internal/rdf"
)

// PropertyGroup is one property of a node set's property distribution:
// the property, the number of set members featuring it, and the triples
// they have with it.
type PropertyGroup struct {
	// Property is the property ID.
	Property rdf.ID
	// Count is the number of distinct set members featuring Property.
	Count int
	// Triples is the number of triples those members have with Property.
	Triples int
}

// PropertyCounts is the paper's property expansion at the index level,
// counted: for every property occurring on the nodes of set — as their
// subject, or as their object when incoming — it returns the distinct
// member count and the triple count, in ascending property ID order. A
// node absent from the snapshot contributes nothing; a node listed twice
// counts twice. The members of one property are MembersWith's, read when
// a caller needs them.
//
// It reads the columnar index's group offsets and never visits triples
// one by one through a map: outgoing, a node's SPO group already lists its
// distinct predicates, and the third-level offsets give each one's triple
// count; incoming, the node's OSP span lists the predicates arriving at
// it. Sorted sets are located in the index by galloping forward, unsorted
// ones by binary search per node; the overlay's runs of tombstones,
// sorted delta and tail are stepped through the same way, so a node the
// overlay or a tombstone touches also reads exactly its own entries. The
// cost is O(|set| + overlay) plus the index's fan-out, and the answer is
// exact under any mix of inserts and deletes.
func (s *Snapshot) PropertyCounts(set []rdf.ID, incoming bool) []PropertyGroup {
	w := distWalk{set: set, incoming: incoming, sorted: slices.IsSorted(set), perm: &s.base.spo, over: s.overlayRuns(incoming)}
	if incoming {
		w.perm = &s.base.osp
	}
	w.tab.init()
	w.run()

	out := make([]PropertyGroup, 0, len(w.tab.slots))
	for _, st := range w.tab.slots {
		if st.count == 0 {
			continue // seen only on triples the tombstones mask
		}
		out = append(out, PropertyGroup{Property: st.prop, Count: st.count, Triples: st.triples})
	}
	slices.SortFunc(out, func(a, b PropertyGroup) int { return cmp.Compare(a.Property, b.Property) })
	return out
}

// MembersWith returns the members of set that have at least one triple
// with property p — as its subject, or as its object when incoming — in
// set order: the members behind one group of PropertyCounts, read node by
// node from the same index groups and overlay runs without building the
// others.
func (s *Snapshot) MembersWith(set []rdf.ID, p rdf.ID, incoming bool) []rdf.ID {
	sorted := slices.IsSorted(set)
	over := s.overlayRuns(incoming)
	overlay := runCursor{o: &over, sorted: sorted}
	// Outgoing, p must be among the node's SPO predicates; incoming, the
	// node must be among p's POS objects.
	keys := keyCursor{keys: s.base.spo.aKeys, sorted: sorted}
	if incoming {
		keys.keys = s.base.pos.bKeysOf(p)
	}
	withP := func(run []rdf.EncodedTriple) int {
		n := 0
		for _, e := range run {
			if e.P == p {
				n++
			}
		}
		return n
	}
	var out []rdf.ID
	for _, node := range set {
		ai, has := keys.find(node)
		if has && !incoming {
			_, has = s.base.spo.findB(ai, p)
		}
		if dead, delta, tail, touched := overlay.of(node); touched {
			n := 0
			if incoming {
				n = s.base.card(rdf.NoID, p, node)
			} else {
				n = s.base.card(node, p, rdf.NoID)
			}
			has = n-withP(dead)+withP(delta)+withP(tail) > 0
		}
		if has {
			out = append(out, node)
		}
	}
	return out
}

// IntersectSorted returns the elements of list that also occur in set,
// in list order. Both must be sorted ascending: the merge gallops through
// set, so a short list costs O(|list| · log |set|), not O(|set|).
func IntersectSorted(list, set []rdf.ID) []rdf.ID {
	cur := keyCursor{keys: set, sorted: true}
	var out []rdf.ID
	for _, x := range list {
		if _, ok := cur.find(x); ok {
			out = append(out, x)
		}
	}
	return out
}

// CountIntersectSorted returns len(IntersectSorted(list, set)) by the
// same merge, without building the intersection.
func CountIntersectSorted(list, set []rdf.ID) int {
	cur := keyCursor{keys: set, sorted: true}
	n := 0
	for _, x := range list {
		if _, ok := cur.find(x); ok {
			n++
		}
	}
	return n
}

// overlayRuns is a snapshot's overlay and tombstone state seen from one
// direction: the tombstoned base triples, sorted-delta triples and tail
// triples, each run sorted by node — subject outgoing, object incoming.
// A node with no entry in any run has an exact base group.
type overlayRuns struct {
	incoming bool
	runs     [3][]rdf.EncodedTriple // tombstones, delta, tail
}

func (s *Snapshot) overlayRuns(incoming bool) overlayRuns {
	o := overlayRuns{incoming: incoming}
	if s.overlayEmpty() && s.tombEmpty() {
		return o
	}
	// The tombstones and the delta are kept sorted in every permutation
	// order; only the tail (at most tailMax triples) needs a sort.
	tail := slices.Clone(s.tail)
	slices.SortFunc(tail, func(x, y rdf.EncodedTriple) int { return cmp.Compare(o.node(x), o.node(y)) })
	o.runs = [3][]rdf.EncodedTriple{s.delSPO, s.deltaSPO, tail}
	if incoming {
		o.runs = [3][]rdf.EncodedTriple{s.delOSP, s.deltaOSP, tail}
	}
	return o
}

// node is the position the runs are sorted by: the subject outgoing, the
// object incoming.
func (o *overlayRuns) node(e rdf.EncodedTriple) rdf.ID {
	if o.incoming {
		return e.O
	}
	return e.S
}

// runCursor finds one node after another in the runs: for a sorted set by
// stepping forward through them — O(overlay) for a whole pass, one
// comparison for a node below every run's next entry — and by binary
// search otherwise.
type runCursor struct {
	o      *overlayRuns
	sorted bool
	at     [3]int
	next   rdf.ID // sorted: no run has an entry for a node below next
}

// of returns node's tombstones, sorted-delta triples and tail triples,
// and whether there are any: touched is false for a node whose base group
// is exact.
func (c *runCursor) of(node rdf.ID) (dead, delta, tail []rdf.EncodedTriple, touched bool) {
	if c.sorted && node < c.next {
		return nil, nil, nil, false
	}
	dead, delta, tail = c.span(0, node), c.span(1, node), c.span(2, node)
	if c.sorted {
		c.next = ^rdf.ID(0)
		for i, run := range c.o.runs {
			if c.at[i] < len(run) {
				c.next = min(c.next, c.o.node(run[c.at[i]]))
			}
		}
	}
	return dead, delta, tail, len(dead)+len(delta)+len(tail) > 0
}

func (c *runCursor) span(i int, node rdf.ID) []rdf.EncodedTriple {
	run, lo := c.o.runs[i], c.at[i]
	if len(run) == 0 {
		return nil
	}
	if c.sorted {
		for lo < len(run) && c.o.node(run[lo]) < node {
			lo++
		}
	} else {
		lo, _ = slices.BinarySearchFunc(run, node, func(e rdf.EncodedTriple, n rdf.ID) int { return cmp.Compare(c.o.node(e), n) })
	}
	c.at[i] = lo // not past node's entries: a set may list a node twice
	hi := lo
	for hi < len(run) && c.o.node(run[hi]) == node {
		hi++
	}
	return run[lo:hi]
}

// keyCursor locates the nodes of a set, one after another, in a sorted
// key array. For a sorted set it gallops forward from the previous hit, so
// a whole pass costs O(|set| · log gap); otherwise each find is a binary
// search.
type keyCursor struct {
	keys   []rdf.ID
	sorted bool
	at     int
}

// find returns the index of the first key >= x and whether it equals x.
// With a sorted cursor, successive calls must not decrease x.
func (c *keyCursor) find(x rdf.ID) (int, bool) {
	keys := c.keys
	if len(keys) == 0 {
		return 0, false
	}
	if !c.sorted {
		return slices.BinarySearch(keys, x)
	}
	// Probe at, at+1, at+3, at+7, ... until a key >= x, then binary-search
	// the last stride.
	lo, hi, step := c.at, c.at, 1
	for hi < len(keys) && keys[hi] < x {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	hi = min(hi, len(keys))
	j, _ := slices.BinarySearch(keys[lo:hi], x)
	c.at = lo + j
	return c.at, c.at < len(keys) && keys[c.at] == x
}

// distWalk is one call of the property-distribution kernel.
type distWalk struct {
	set      []rdf.ID
	incoming bool
	sorted   bool
	perm     *permIndex // SPO outgoing, OSP incoming
	over     overlayRuns
	tab      propTable
}

// run visits every node of the set once, counting members and triples per
// property.
func (w *distWalk) run() {
	p, t := w.perm, &w.tab
	keys := keyCursor{keys: p.aKeys, sorted: w.sorted}
	overlay := runCursor{o: &w.over, sorted: w.sorted}
	for _, node := range w.set {
		ai, inBase := keys.find(node)
		dead, delta, tail, touched := overlay.of(node)
		switch {
		case touched:
		case !inBase:
			continue
		case !w.incoming:
			// A clean node's SPO group lists its distinct predicates; the
			// third-level offsets give each one's triple count.
			for j := p.aOff[ai]; j < p.aOff[ai+1]; j++ {
				t.add(t.slot(p.bKeys[j]), int(p.bOff[j+1]-p.bOff[j]))
			}
			continue
		}
		// Incoming spans repeat a predicate once per arriving triple, and a
		// touched node adds and masks triples: sum each predicate's triples
		// for the node, then record the predicates left with any.
		t.openNode()
		if inBase {
			lo, hi := p.aOff[ai], p.aOff[ai+1]
			if w.incoming {
				for _, pred := range p.c[p.bOff[lo]:p.bOff[hi]] {
					t.sum(pred, 1)
				}
			} else {
				for j := lo; j < hi; j++ {
					t.sum(p.bKeys[j], int(p.bOff[j+1]-p.bOff[j]))
				}
			}
		}
		for _, e := range dead {
			t.sum(e.P, -1)
		}
		for _, e := range delta {
			t.sum(e.P, 1)
		}
		for _, e := range tail {
			t.sum(e.P, 1)
		}
		for _, slot := range t.opened {
			if n := t.slots[slot].net; n > 0 {
				t.add(slot, n)
			}
		}
	}
}

// propTable maps predicate IDs to dense slots by open addressing — linear
// probing over a power-of-two table under a multiplicative hash, rdf.NoID
// marking a free cell — and holds the per-slot state of a walk.
type propTable struct {
	cells []propCell
	mask  uint32 // len(cells) - 1
	slots []slotState

	epoch  uint32 // the node being summed
	opened []int  // slots the node being summed has touched
}

type propCell struct {
	key  rdf.ID
	slot int32
}

type slotState struct {
	prop    rdf.ID
	stamp   uint32 // epoch of the last node that summed into net
	net     int    // that node's triples with prop
	count   int    // distinct members
	triples int
}

func (t *propTable) init() {
	t.cells = make([]propCell, 64)
	t.mask = 63
}

func propHash(p rdf.ID) uint32 {
	h := uint32(p) * 0x9E3779B1
	return h ^ h>>16
}

// slot returns p's dense slot, assigning the next one on first sight.
func (t *propTable) slot(p rdf.ID) int {
	for h := propHash(p) & t.mask; ; h = (h + 1) & t.mask {
		switch c := t.cells[h]; c.key {
		case p:
			return int(c.slot)
		case rdf.NoID:
			return t.insert(h, p)
		}
	}
}

func (t *propTable) insert(h uint32, p rdf.ID) int {
	slot := len(t.slots)
	t.cells[h] = propCell{key: p, slot: int32(slot)}
	t.slots = append(t.slots, slotState{prop: p})
	if 2*len(t.slots) > len(t.cells) {
		// Double the table and re-insert every predicate.
		t.cells = make([]propCell, 2*len(t.cells))
		t.mask = uint32(len(t.cells) - 1)
		for i, st := range t.slots {
			h := propHash(st.prop) & t.mask
			for t.cells[h].key != rdf.NoID {
				h = (h + 1) & t.mask
			}
			t.cells[h] = propCell{key: st.prop, slot: int32(i)}
		}
	}
	return slot
}

// openNode starts summing a new node's triples per predicate.
func (t *propTable) openNode() {
	t.epoch++
	t.opened = t.opened[:0]
}

// sum adds n triples with p to the node being summed.
func (t *propTable) sum(p rdf.ID, n int) {
	slot := t.slot(p)
	st := &t.slots[slot]
	if st.stamp != t.epoch {
		st.stamp, st.net = t.epoch, 0
		t.opened = append(t.opened, slot)
	}
	st.net += n
}

// add records one more member with n triples under slot.
func (t *propTable) add(slot, n int) {
	st := &t.slots[slot]
	st.count++
	st.triples += n
}
