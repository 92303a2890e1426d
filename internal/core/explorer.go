package core

import (
	"fmt"
	"slices"
	"sync"

	"elinda/internal/ontology"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// DefaultCoverageThreshold is the paper's default 20% property-coverage
// cutoff.
const DefaultCoverageThreshold = 0.20

// Explorer evaluates bar expansions over a store. It owns an ontology
// snapshot (rebuilt automatically when the store changes).
type Explorer struct {
	st *store.Store
	mu sync.Mutex // guards h
	h  *ontology.Hierarchy

	// CoverageThreshold is the default property-chart cutoff.
	CoverageThreshold float64
}

// NewExplorer builds an explorer over st.
func NewExplorer(st *store.Store) *Explorer {
	return &Explorer{
		st:                st,
		h:                 ontology.Build(st),
		CoverageThreshold: DefaultCoverageThreshold,
	}
}

// Store returns the underlying store.
func (e *Explorer) Store() *store.Store { return e.st }

// Hierarchy returns the (fresh) ontology snapshot. It is safe for
// concurrent use: the snapshot is rebuilt under a lock when the store
// changed since it was built.
func (e *Explorer) Hierarchy() *ontology.Hierarchy {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.h.Stale() {
		e.h = ontology.Build(e.st)
	}
	return e.h
}

// label returns the display label for a term, read through snap.
func (e *Explorer) label(snap *store.Snapshot, t rdf.Term) string {
	if id, ok := snap.Dict().Lookup(t); ok {
		return snap.Label(id)
	}
	return t.LocalName()
}

// RootBar returns the bar B = ⟨S, τ, class⟩ for the predefined root type τ
// (owl:Thing when present), with S = all s with (s, rdf:type, τ). For
// rootless datasets it returns a virtual bar whose set is every typed
// subject and whose label is empty.
func (e *Explorer) RootBar() *Bar { return e.rootBar(e.st.Snapshot()) }

func (e *Explorer) rootBar(snap *store.Snapshot) *Bar {
	h := e.Hierarchy()
	root := h.Root()
	if root != rdf.NoID {
		return classBar(snap, snap.Dict().Term(root))
	}
	// Virtual root over all typed subjects (LinkedGeoData case). Subjects
	// typed only as meta-classes (class/property declarations) are not
	// instances and stay out of the set.
	meta := map[rdf.ID]struct{}{}
	for _, iri := range []rdf.Term{rdf.OWLClassIRI, rdf.RDFSClassIRI, rdf.NewIRI(rdf.RDFProperty)} {
		if id, ok := snap.Dict().Lookup(iri); ok {
			meta[id] = struct{}{}
		}
	}
	seen := map[rdf.ID]struct{}{}
	var set []rdf.ID
	snap.Match(rdf.NoID, snap.TypeID(), rdf.NoID, func(t rdf.EncodedTriple) bool {
		if _, isMeta := meta[t.O]; isMeta {
			return true
		}
		if _, dup := seen[t.S]; !dup {
			seen[t.S] = struct{}{}
			set = append(set, t.S)
		}
		return true
	})
	return newBar(set, rdf.Term{}, ClassBar, newPatternBuilder())
}

// ClassBar returns the bar for a class: S is every subject with
// (s, rdf:type, class). The set is a zero-copy view of the store
// snapshot's index — immutable, so safe to retain in the bar.
func (e *Explorer) ClassBar(class rdf.Term) *Bar { return classBar(e.st.Snapshot(), class) }

func classBar(snap *store.Snapshot, class rdf.Term) *Bar {
	var set []rdf.ID
	if cid, ok := snap.Dict().Lookup(class); ok {
		set = snap.SubjectsOfType(cid)
	}
	return newBar(set, class, ClassBar, newPatternBuilder().withType(class))
}

// Expand applies the expansion kind to the bar. ObjectExpansion requires a
// property bar; the others require a class bar (FilterExpansion accepts
// any). The paper: "ηi is applicable to Bi−1[λi]".
func (e *Explorer) Expand(b *Bar, kind ExpansionKind) (*Chart, error) {
	switch kind {
	case SubclassExpansion:
		if b.Type != ClassBar {
			return nil, fmt.Errorf("core: subclass expansion requires a class bar, got %s", b.Type)
		}
		return e.subclassExpansion(b), nil
	case PropertyExpansion, IncomingPropertyExpansion:
		if b.Type != ClassBar {
			return nil, fmt.Errorf("core: property expansion requires a class bar, got %s", b.Type)
		}
		return e.propertyExpansion(b, kind == IncomingPropertyExpansion), nil
	case ObjectExpansion, IncomingObjectExpansion:
		if b.Type != PropertyBar {
			return nil, fmt.Errorf("core: object expansion requires a property bar, got %s", b.Type)
		}
		return e.objectExpansion(e.st.Snapshot(), b, kind == IncomingObjectExpansion), nil
	default:
		return nil, fmt.Errorf("core: expansion %s is not chart-producing", kind)
	}
}

// subclassExpansion: labels(B) = direct subclasses τ of λ; B[τ] = members
// of S of class τ, in the class's (sorted) posting order. The chart counts
// each intersection; a bar builds its own on first read.
func (e *Explorer) subclassExpansion(b *Bar) *Chart {
	chart := &Chart{Kind: SubclassExpansion, SourceLabel: b.Label, SourceSize: b.Len()}
	snap := e.st.Snapshot()
	set := sortedSet(b)
	for _, sub := range e.subclassesOf(b) {
		n := store.CountIntersectSorted(snap.SubjectsOfType(sub), set)
		chart.Bars = append(chart.Bars, subclassBar(snap, b, set, sub, n))
	}
	sortBars(chart.Bars)
	return chart
}

// subclassesOf returns the labels of b's subclass chart: the direct
// subclasses of its class, or the top-level classes for the virtual root.
func (e *Explorer) subclassesOf(b *Bar) []rdf.ID {
	h := e.Hierarchy()
	if b.Label.IsZero() {
		return h.TopLevelClasses()
	}
	if cid, ok := e.st.Dict().Lookup(b.Label); ok {
		return h.DirectSubclasses(cid)
	}
	return nil
}

// sortedSet returns b's set in ascending order, sorting a copy only when
// it is not already.
func sortedSet(b *Bar) []rdf.ID {
	set := b.Set()
	if !slices.IsSorted(set) {
		set = slices.Sorted(slices.Values(set))
	}
	return set
}

// subclassBar is B[τ] of the subclass expansion of parent over snap, for
// τ = sub: the n members of the sorted parent set that snap types sub,
// intersected on first read.
func subclassBar(snap *store.Snapshot, parent *Bar, sorted []rdf.ID, sub rdf.ID, n int) ChartBar {
	subTerm := snap.Dict().Term(sub)
	members := func() []rdf.ID { return store.IntersectSorted(snap.SubjectsOfType(sub), sorted) }
	return ChartBar{
		Bar:       lazyBar(n, members, subTerm, ClassBar, parent.pat(), false),
		LabelText: snap.Label(sub),
		Count:     n,
	}
}

// propertyExpansion: labels(B) = properties π with (s, π, o) for s ∈ S
// (or (o, π, s) when incoming); B[π] = members of S featuring π, in set
// order. Property data "aggregates all properties found within instances
// in S" — no ontology declarations consulted. The counts are the store's
// one kernel, shared with the decomposer; a bar reads its members with
// MembersWith on first read.
func (e *Explorer) propertyExpansion(b *Bar, incoming bool) *Chart {
	chart := &Chart{Kind: propertyKind(incoming), SourceLabel: b.Label, SourceSize: b.Len()}
	snap := e.st.Snapshot()
	set := b.Set()
	for _, g := range snap.PropertyCounts(set, incoming) {
		members := func() []rdf.ID { return snap.MembersWith(set, g.Property, incoming) }
		chart.Bars = append(chart.Bars, propertyBar(snap, b, g.Property, incoming, g.Count, g.Triples, members))
	}
	sortBars(chart.Bars)
	return chart
}

func propertyKind(incoming bool) ExpansionKind {
	if incoming {
		return IncomingPropertyExpansion
	}
	return PropertyExpansion
}

// propertyBar is B[π] of the property expansion of parent over snap, for
// π = prop: n members with triples triples between them, which members
// returns on first read.
func propertyBar(snap *store.Snapshot, parent *Bar, prop rdf.ID, incoming bool, n, triples int, members func() []rdf.ID) ChartBar {
	pTerm := snap.Dict().Term(prop)
	cb := ChartBar{
		Bar:       lazyBar(n, members, pTerm, PropertyBar, parent.pat(), incoming),
		LabelText: snap.Label(prop),
		Count:     n,
		Triples:   triples,
	}
	if denom := float64(parent.Len()); denom > 0 {
		cb.Coverage = float64(n) / denom
	}
	return cb
}

// objectExpansion: for property bar B = ⟨S, λ, property⟩, labels(B) = the
// classes τ of objects o with (s, λ, o), s ∈ S; B[τ] = those objects of
// class τ. The incoming variant reads (o, λ, s). Every read goes through
// snap.
func (e *Explorer) objectExpansion(snap *store.Snapshot, b *Bar, incoming bool) *Chart {
	chart := &Chart{Kind: objectKind(incoming), SourceLabel: b.Label, SourceSize: b.Len()}
	propID, ok := snap.Dict().Lookup(b.Label)
	if !ok {
		return chart
	}
	pattern := b.pat().hopObject(b.Label, incoming)
	for c, members := range objectsByClass(snap, b.Set(), propID, incoming) {
		chart.Bars = append(chart.Bars, objectBar(snap, pattern, c, len(members), func() []rdf.ID { return members }))
	}
	sortBars(chart.Bars)
	return chart
}

func objectKind(incoming bool) ExpansionKind {
	if incoming {
		return IncomingObjectExpansion
	}
	return ObjectExpansion
}

// objectBar is B[τ] of an object expansion whose objects the pattern
// anchors, for τ = class: n objects, which members returns.
func objectBar(snap *store.Snapshot, pattern *patternBuilder, class rdf.ID, n int, members func() []rdf.ID) ChartBar {
	cTerm := snap.Dict().Term(class)
	return ChartBar{
		Bar:       lazyBar(n, members, cTerm, ClassBar, pattern, false),
		LabelText: snap.Label(class),
		Count:     n,
	}
}

// objectsByClass distributes the objects reached from set via propID (the
// subjects reaching it, when incoming) over their classes in snap. Each
// class's objects come in ID order, the same on every run.
func objectsByClass(snap *store.Snapshot, set []rdf.ID, propID rdf.ID, incoming bool) map[rdf.ID][]rdf.ID {
	connected := map[rdf.ID]struct{}{}
	for _, s := range set {
		if incoming {
			for _, o := range snap.Subjects(propID, s) {
				connected[o] = struct{}{}
			}
		} else {
			for _, o := range snap.Objects(s, propID) {
				connected[o] = struct{}{}
			}
		}
	}
	objs := make([]rdf.ID, 0, len(connected))
	for o := range connected {
		objs = append(objs, o)
	}
	slices.Sort(objs)
	perClass := map[rdf.ID][]rdf.ID{}
	for _, o := range objs {
		for _, c := range snap.Objects(o, snap.TypeID()) {
			perClass[c] = append(perClass[c], o)
		}
	}
	return perClass
}
