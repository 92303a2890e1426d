package rdf

import "fmt"

// Triple is a single RDF statement. The subject and predicate must be IRIs
// (or blank nodes for the subject); the object may be any term.
type Triple struct {
	S, P, O Term
}

// String renders the triple in N-Triples syntax including the final dot.
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String() + " ."
}

// Validate reports whether the triple is well formed per the paper's model:
// subject in U (we additionally admit blank nodes), predicate in U, object
// in U ∪ L.
func (t Triple) Validate() error {
	if t.S.IsLiteral() {
		return fmt.Errorf("rdf: subject must not be a literal: %s", t.S)
	}
	if t.S.IsZero() {
		return fmt.Errorf("rdf: empty subject")
	}
	if !t.P.IsIRI() || t.P.Value == "" {
		return fmt.Errorf("rdf: predicate must be a non-empty IRI: %s", t.P)
	}
	if t.O.IsZero() {
		return fmt.Errorf("rdf: empty object")
	}
	return nil
}

// TripleOp is one mutation of a triple set: the insertion of Triple, or
// (when Del is set) its deletion. Ordered slices of TripleOps are the
// shared vocabulary of the live mutation path — store deltas, WAL
// records, and cache invalidation all speak in them.
type TripleOp struct {
	Del    bool
	Triple Triple
}

// Insert wraps t as an insertion op.
func Insert(t Triple) TripleOp { return TripleOp{Triple: t} }

// Delete wraps t as a deletion op.
func Delete(t Triple) TripleOp { return TripleOp{Del: true, Triple: t} }

// Compare orders triples lexicographically by subject, predicate, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}
