package store

import (
	"sort"

	"elinda/internal/rdf"
)

// Stats summarizes a dataset. The paper (Section 3.1): "The very first
// queries present the user with general statistics about the dataset such
// as the total number of RDF triples, and the number of classes the
// dataset has."
type Stats struct {
	// Triples is the total number of RDF triples.
	Triples int
	// Subjects is the number of distinct subjects.
	Subjects int
	// Predicates is the number of distinct predicates.
	Predicates int
	// Objects is the number of distinct objects (URIs and literals).
	Objects int
	// Classes is the number of distinct classes, collected as all subjects
	// of type owl:Class or rdfs:Class plus every object of rdf:type.
	Classes int
	// DeclaredClasses counts only explicitly declared classes
	// (owl:Class / rdfs:Class), the list behind the autocomplete box.
	DeclaredClasses int
	// TypedSubjects is the number of subjects with at least one rdf:type.
	TypedSubjects int
	// Literals is the number of distinct literal objects.
	Literals int
}

// ComputeStats derives the dataset statistics from the current snapshot.
func (s *Store) ComputeStats() Stats { return s.Snapshot().ComputeStats() }

// ComputeStats walks the snapshot's columnar indexes once and derives the
// dataset statistics. Distinct subject/predicate/object counts fall out
// of the base index key arrays, adjusted by one pass over the bounded
// overlay (delta + tail) — no index rebuild, whatever the write state.
func (s *Snapshot) ComputeStats() Stats {
	col := s.base

	var st Stats
	st.Triples = s.Len()
	st.Subjects = len(col.spo.aKeys)
	st.Predicates = len(col.pos.aKeys)
	st.Objects = len(col.osp.aKeys)

	classSet := make(map[rdf.ID]struct{})
	declared := make(map[rdf.ID]struct{})
	typed := make(map[rdf.ID]struct{})
	litCount := 0

	owlClassID, okOwl := s.dict.Lookup(rdf.OWLClassIRI)
	rdfsClassID, okRdfs := s.dict.Lookup(rdf.RDFSClassIRI)

	isLit := func(o rdf.ID) bool {
		t, ok := s.dict.TermOK(o)
		return ok && t.IsLiteral()
	}
	for _, o := range col.osp.aKeys {
		if isLit(o) {
			litCount++
		}
	}
	if !s.overlayEmpty() {
		// Count the positions the overlay introduces beyond the base.
		newS := make(map[rdf.ID]struct{})
		newP := make(map[rdf.ID]struct{})
		newO := make(map[rdf.ID]struct{})
		overlay := func(e rdf.EncodedTriple) {
			if _, ok := col.spo.findA(e.S); !ok {
				newS[e.S] = struct{}{}
			}
			if _, ok := col.pos.findA(e.P); !ok {
				newP[e.P] = struct{}{}
			}
			if _, ok := col.osp.findA(e.O); !ok {
				newO[e.O] = struct{}{}
			}
		}
		for _, e := range s.deltaSPO {
			overlay(e)
		}
		for _, e := range s.tail {
			overlay(e)
		}
		st.Subjects += len(newS)
		st.Predicates += len(newP)
		st.Objects += len(newO)
		for o := range newO {
			if isLit(o) {
				litCount++
			}
		}
	}
	st.Literals = litCount

	// Type assertions: register classes, typed subjects, and declared
	// classes. Match covers base and overlay alike.
	s.Match(rdf.NoID, s.typeID, rdf.NoID, func(e rdf.EncodedTriple) bool {
		classSet[e.O] = struct{}{}
		typed[e.S] = struct{}{}
		if okOwl && e.O == owlClassID || okRdfs && e.O == rdfsClassID {
			declared[e.S] = struct{}{}
			classSet[e.S] = struct{}{}
		}
		return true
	})
	// Classes mentioned only in the subclass hierarchy also count.
	s.Match(rdf.NoID, s.subClassID, rdf.NoID, func(e rdf.EncodedTriple) bool {
		classSet[e.O] = struct{}{}
		classSet[e.S] = struct{}{}
		return true
	})

	st.Classes = len(classSet)
	st.DeclaredClasses = len(declared)
	st.TypedSubjects = len(typed)
	return st
}

// DeclaredClassList returns the IDs of every subject declared as
// owl:Class or rdfs:Class, sorted by label. This populates the paper's
// autocomplete search box (Section 3.2).
func (s *Snapshot) DeclaredClassList() []rdf.ID {
	set := make(map[rdf.ID]struct{})
	for _, classIRI := range []rdf.Term{rdf.OWLClassIRI, rdf.RDFSClassIRI} {
		cid, ok := s.dict.Lookup(classIRI)
		if !ok {
			continue
		}
		for _, sub := range s.Subjects(s.typeID, cid) {
			set[sub] = struct{}{}
		}
	}
	out := make([]rdf.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return s.Label(out[i]) < s.Label(out[j]) })
	return out
}

// SearchClasses returns declared classes whose label contains the query
// under ASCII case folding (current snapshot). Empty query returns all
// classes.
func (s *Store) SearchClasses(query string) []rdf.ID { return s.Snapshot().SearchClasses(query) }

// SearchClasses returns declared classes whose label contains the query
// under ASCII case folding. Empty query returns all classes.
func (s *Snapshot) SearchClasses(query string) []rdf.ID {
	all := s.DeclaredClassList()
	if query == "" {
		return all
	}
	var out []rdf.ID
	for _, id := range all {
		if containsFold(s.Label(id), query) {
			out = append(out, id)
		}
	}
	return out
}

// containsFold reports whether substr occurs in s under ASCII case folding.
func containsFold(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	if len(substr) > len(s) {
		return false
	}
	lower := func(c byte) byte {
		if c >= 'A' && c <= 'Z' {
			return c + 'a' - 'A'
		}
		return c
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		match := true
		for j := 0; j < len(substr); j++ {
			if lower(s[i+j]) != lower(substr[j]) {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}
