// Package ontology builds and queries the class hierarchy of a dataset.
//
// The paper (Section 3.1): "the full power of the tool is exploited for
// datasets that define a class type hierarchy using the standard properties
// owl:Class (or rdfs:Class) and rdfs:subClassOf"; and (Section 3.2) each
// pane shows "the number of direct and indirect subclasses that class type
// T has" — e.g. Agent with 5 direct subclasses and 277 in total. The
// hierarchy is a DAG (a class may declare several superclasses); cycles in
// dirty data are tolerated by the closure computation.
package ontology

import (
	"sort"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Hierarchy is an immutable snapshot of the subclass DAG of a store,
// built by Build. Rebuild after KB updates (compare store generations).
type Hierarchy struct {
	st         *store.Store
	generation uint64

	// children[c] = classes declared rdfs:subClassOf c (direct subclasses).
	children map[rdf.ID][]rdf.ID
	// parents[c] = direct superclasses of c.
	parents map[rdf.ID][]rdf.ID
	// classes is the set of every node mentioned by the hierarchy or used
	// as an rdf:type object.
	classes map[rdf.ID]struct{}
	// roots are classes with no parent, sorted by label.
	roots []rdf.ID
	// instanceCount[c] = number of direct instances (s, rdf:type, c).
	instanceCount map[rdf.ID]int
}

// Build constructs the hierarchy from one immutable store snapshot, so
// the recorded generation matches exactly the data the scan observed
// (and the scans themselves are lock-free).
func Build(st *store.Store) *Hierarchy {
	snap := st.Snapshot()
	h := &Hierarchy{
		st:            st,
		generation:    snap.Generation(),
		children:      make(map[rdf.ID][]rdf.ID),
		parents:       make(map[rdf.ID][]rdf.ID),
		classes:       make(map[rdf.ID]struct{}),
		instanceCount: make(map[rdf.ID]int),
	}
	// Subclass edges.
	snap.Match(rdf.NoID, snap.SubClassOfID(), rdf.NoID, func(e rdf.EncodedTriple) bool {
		h.children[e.O] = append(h.children[e.O], e.S)
		h.parents[e.S] = append(h.parents[e.S], e.O)
		h.classes[e.S] = struct{}{}
		h.classes[e.O] = struct{}{}
		return true
	})
	// Types: count instances and register classes.
	snap.Match(rdf.NoID, snap.TypeID(), rdf.NoID, func(e rdf.EncodedTriple) bool {
		h.instanceCount[e.O]++
		h.classes[e.O] = struct{}{}
		return true
	})
	// Declared classes with no instances and no edges still count
	// (DBpedia: "22 do not have instances at all").
	for _, id := range snap.DeclaredClassList() {
		h.classes[id] = struct{}{}
	}
	for c := range h.classes {
		if len(h.parents[c]) == 0 && !isMetaClass(st, c) {
			h.roots = append(h.roots, c)
		}
	}
	sortByLabel(snap, h.roots)
	for _, kids := range h.children {
		sortByLabel(snap, kids)
	}
	return h
}

// isMetaClass filters owl:Class, rdfs:Class themselves out of the root list.
func isMetaClass(st *store.Store, c rdf.ID) bool {
	t, ok := st.Dict().TermOK(c)
	if !ok {
		return false
	}
	switch t.Value {
	case rdf.OWLClass, rdf.RDFSClass, rdf.RDFProperty:
		return true
	}
	return false
}

// sortByLabel orders ids by their labels as of snap, breaking ties on ID.
// The caller binds snap once, so every comparison reads one generation.
func sortByLabel(snap *store.Snapshot, ids []rdf.ID) {
	sort.Slice(ids, func(i, j int) bool {
		li, lj := snap.Label(ids[i]), snap.Label(ids[j])
		if li != lj {
			return li < lj
		}
		return ids[i] < ids[j]
	})
}

// Generation returns the store generation the snapshot was built at.
func (h *Hierarchy) Generation() uint64 { return h.generation }

// Stale reports whether the underlying store changed since Build.
func (h *Hierarchy) Stale() bool { return h.st.Generation() != h.generation }

// IsClass reports whether id is known as a class.
func (h *Hierarchy) IsClass(id rdf.ID) bool {
	_, ok := h.classes[id]
	return ok
}

// Classes returns every known class, sorted by label.
func (h *Hierarchy) Classes() []rdf.ID {
	out := make([]rdf.ID, 0, len(h.classes))
	for c := range h.classes {
		out = append(out, c)
	}
	sortByLabel(h.st.Snapshot(), out)
	return out
}

// DirectSubclasses returns the classes declared rdfs:subClassOf c, sorted
// by label. The returned slice is shared; callers must not mutate it.
func (h *Hierarchy) DirectSubclasses(c rdf.ID) []rdf.ID { return h.children[c] }

// DirectSuperclasses returns the direct superclasses of c.
func (h *Hierarchy) DirectSuperclasses(c rdf.ID) []rdf.ID { return h.parents[c] }

// Roots returns the classes with no superclass (excluding meta-classes),
// sorted by label. For datasets like LinkedGeoData with no single root the
// list may be long; Explorer synthesizes a virtual root pane in that case
// (Section 3.2 footnote: "We also handle the case of datasets with no root
// class").
func (h *Hierarchy) Roots() []rdf.ID { return h.roots }

// Root returns the preferred root: owl:Thing if it is a known class,
// otherwise the single root if unique, otherwise NoID.
func (h *Hierarchy) Root() rdf.ID {
	if id, ok := h.st.Dict().Lookup(rdf.OWLThingIRI); ok {
		if _, isClass := h.classes[id]; isClass {
			return id
		}
	}
	if len(h.roots) == 1 {
		return h.roots[0]
	}
	return rdf.NoID
}

// SubclassClosure returns all descendants of c (not including c itself),
// deduplicated. Cycles are tolerated. Results are sorted by label.
func (h *Hierarchy) SubclassClosure(c rdf.ID) []rdf.ID {
	seen := map[rdf.ID]struct{}{c: {}}
	var out []rdf.ID
	stack := append([]rdf.ID(nil), h.children[c]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, dup := seen[n]; dup {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
		stack = append(stack, h.children[n]...)
	}
	sortByLabel(h.st.Snapshot(), out)
	return out
}

// SubclassCounts returns (direct, total) subclass counts for c — the
// numbers shown in the pane header and hover pop-up ("5 direct subclasses,
// and 277 subclasses in total").
func (h *Hierarchy) SubclassCounts(c rdf.ID) (direct, total int) {
	return len(h.children[c]), len(h.SubclassClosure(c))
}

// DirectInstanceCount returns the number of subjects typed directly as c.
func (h *Hierarchy) DirectInstanceCount(c rdf.ID) int { return h.instanceCount[c] }

// DeepInstanceCount returns the number of distinct subjects typed as c or
// any descendant of c.
func (h *Hierarchy) DeepInstanceCount(c rdf.ID) int {
	return len(h.DeepInstances(c))
}

// DeepInstances returns the distinct subjects typed as c or any descendant.
func (h *Hierarchy) DeepInstances(c rdf.ID) []rdf.ID {
	snap := h.st.Snapshot()
	set := make(map[rdf.ID]struct{})
	add := func(class rdf.ID) {
		for _, s := range snap.SubjectsOfType(class) {
			set[s] = struct{}{}
		}
	}
	add(c)
	for _, d := range h.SubclassClosure(c) {
		add(d)
	}
	out := make([]rdf.ID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathFromRoot returns one shortest chain root → ... → c through the
// hierarchy, used for the breadcrumb trail. Returns nil if c is unreachable
// from the preferred root.
func (h *Hierarchy) PathFromRoot(c rdf.ID) []rdf.ID {
	root := h.Root()
	if root == rdf.NoID {
		return nil
	}
	if c == root {
		return []rdf.ID{root}
	}
	// BFS upward from c toward the root, then reverse.
	type node struct {
		id   rdf.ID
		prev *node
	}
	seen := map[rdf.ID]struct{}{c: {}}
	queue := []*node{{id: c}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range h.parents[n.id] {
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			nn := &node{id: p, prev: n}
			if p == root {
				var path []rdf.ID
				for cur := nn; cur != nil; cur = cur.prev {
					path = append(path, cur.id)
				}
				return path
			}
			queue = append(queue, nn)
		}
	}
	return nil
}

// TopLevelClasses returns the direct subclasses of the preferred root, or
// the root list when no preferred root exists. This is the paper's
// "first-level classes of the dataset" scenario.
func (h *Hierarchy) TopLevelClasses() []rdf.ID {
	if root := h.Root(); root != rdf.NoID {
		return h.DirectSubclasses(root)
	}
	return h.Roots()
}

// EmptyClasses returns classes (under the preferred root's closure, or all
// classes when rootless) that have zero direct and zero deep instances —
// the paper's "almost half of the classes (22) do not have instances at
// all" observation, restricted to top-level when topOnly is set.
func (h *Hierarchy) EmptyClasses(topOnly bool) []rdf.ID {
	var candidates []rdf.ID
	if topOnly {
		candidates = h.TopLevelClasses()
	} else {
		candidates = h.Classes()
	}
	var out []rdf.ID
	for _, c := range candidates {
		if h.DeepInstanceCount(c) == 0 {
			out = append(out, c)
		}
	}
	return out
}
