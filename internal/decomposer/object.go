package decomposer

import (
	"slices"
	"strconv"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// ObjectDetection is an object expansion (core.ObjectExpansionSPARQL):
// the classes of the objects reached from the direct instances of Class
// via Prop, each with its number of distinct objects,
//
//	SELECT ?t (COUNT(DISTINCT ?o) AS ?n)
//	WHERE { ?s a C . ?s p ?o . ?o a ?t . } GROUP BY ?t
//
// or, Incoming, with the link reversed (?o p ?s). The decomposer does not
// answer this shape; the proxy keeps its answers in the HVS and FoldObject
// carries them across writes.
type ObjectDetection struct {
	// Class and Prop are the constants of the member and link patterns.
	Class, Prop rdf.Term
	// Dir is Outgoing for ?s p ?o, Incoming for ?o p ?s.
	Dir Direction
	// TypeVar and CountVar name the result columns (?t and ?n).
	TypeVar, CountVar string

	// q is the parsed query, whose ORDER BY a fold re-applies.
	q *sparql.Query
}

// DetectObject reports whether q is exactly an object expansion: the
// three patterns above with C and p IRIs, p not rdf:type, and ?s, ?o and
// ?t distinct; the projection ?t and COUNT(DISTINCT ?o) AS ?n grouped
// by ?t; ORDER BY keys only over ?t and ?n; and no LIMIT, OFFSET, HAVING,
// DISTINCT, FILTER, OPTIONAL, UNION, VALUES or subselect. Anything else
// can only be evicted by a write, never folded.
func DetectObject(q *sparql.Query) (ObjectDetection, bool) {
	if q == nil || q.Ask || q.Distinct || q.Star || len(q.Having) > 0 || q.Limit >= 0 || q.Offset > 0 ||
		len(q.GroupBy) != 1 || len(q.Items) != 2 || q.Where == nil {
		return ObjectDetection{}, false
	}
	w := q.Where
	if len(w.Triples) != 3 || len(w.SubSelects) > 0 || len(w.Filters) > 0 || len(w.Optionals) > 0 ||
		len(w.Unions) > 0 || len(w.Values) > 0 {
		return ObjectDetection{}, false
	}
	det := ObjectDetection{q: q}
	var member, typed, link *sparql.TriplePattern
	for i := range w.Triples {
		tp := &w.Triples[i]
		switch {
		case tp.P.IsVar || !tp.S.IsVar:
			return ObjectDetection{}, false
		case tp.P.Term != rdf.TypeIRI:
			if link != nil || !tp.O.IsVar {
				return ObjectDetection{}, false
			}
			link = tp
		case !tp.O.IsVar:
			if member != nil {
				return ObjectDetection{}, false
			}
			member = tp
		default:
			if typed != nil {
				return ObjectDetection{}, false
			}
			typed = tp
		}
	}
	if member == nil || typed == nil || link == nil || member.O.Term.Kind != rdf.IRI || link.P.Term.Kind != rdf.IRI {
		return ObjectDetection{}, false
	}
	s, o, t := member.S.Name, typed.S.Name, typed.O.Name
	if s == o || s == t || o == t {
		return ObjectDetection{}, false
	}
	switch {
	case link.S.Name == s && link.O.Name == o:
		det.Dir = Outgoing
	case link.S.Name == o && link.O.Name == s:
		det.Dir = Incoming
	default:
		return ObjectDetection{}, false
	}
	det.Class, det.Prop, det.TypeVar = member.O.Term, link.P.Term, t
	if q.GroupBy[0] != t {
		return ObjectDetection{}, false
	}
	for _, it := range q.Items {
		if it.Expr == nil {
			if it.Var != t {
				return ObjectDetection{}, false
			}
			continue
		}
		agg, isAgg := it.Expr.(*sparql.AggExpr)
		if !isAgg || agg.Op != "COUNT" || !agg.Distinct || agg.Star || det.CountVar != "" ||
			it.Var == s || it.Var == o || it.Var == t {
			return ObjectDetection{}, false
		}
		if arg, isVar := agg.Arg.(*sparql.VarExpr); !isVar || arg.Name != o {
			return ObjectDetection{}, false
		}
		det.CountVar = it.Var
	}
	if det.CountVar == "" {
		return ObjectDetection{}, false
	}
	for _, k := range q.OrderBy {
		if v, isVar := k.Expr.(*sparql.VarExpr); !isVar || v.Name != t && v.Name != det.CountVar {
			return ObjectDetection{}, false
		}
	}
	return det, true
}

// FoldObject returns the object expansion det answered by old, carried
// forward over the write res onto snap (the snapshot at res.To), or
// ok=false when the write cannot be folded: it touches rdf:type (class
// membership or an object's types may move), snap is at another
// generation, or old does not read as this chart.
//
// An object's support is the number of direct instances linked to it via
// Prop; its types' counts move only when its support crosses zero. A net
// link triple whose member end is an instance moves its object's support
// by ±1; after each touched object's support is counted at res.To, the
// support before is that minus the net change, so a write that links the
// same object several times stays exact. When no support crosses zero
// the result is old itself; otherwise the rows are rebuilt copy-on-write
// (readers may hold old) and re-ordered by the query's ORDER BY.
func FoldObject(snap *store.Snapshot, det ObjectDetection, old *sparql.Result, res store.ApplyResult) (*sparql.Result, bool) {
	if snap.Generation() != res.To || det.q == nil {
		return nil, false
	}
	typeID := snap.TypeID()
	isType := func(e rdf.EncodedTriple) bool { return e.P == typeID }
	if slices.ContainsFunc(res.NetInserts, isType) || slices.ContainsFunc(res.NetDeletes, isType) {
		return nil, false
	}
	dict := snap.Dict()
	class, hasClass := dict.Lookup(det.Class)
	prop, hasProp := dict.Lookup(det.Prop)
	if !hasClass || !hasProp {
		return old, true // no instance or no link: the write cannot reach the chart
	}
	member := func(id rdf.ID) bool { return snap.ContainsID(id, typeID, class) }

	net := make(map[rdf.ID]int) // object → net change of its support
	add := func(e rdf.EncodedTriple, n int) {
		if e.P != prop {
			return
		}
		m, x := e.S, e.O
		if det.Dir == Incoming {
			m, x = e.O, e.S
		}
		if member(m) {
			net[x] += n
		}
	}
	for _, e := range res.NetInserts {
		add(e, 1)
	}
	for _, e := range res.NetDeletes {
		add(e, -1)
	}

	shift := make(map[rdf.ID]int) // type → change of its distinct-object count
	for x, n := range net {
		if n == 0 {
			continue
		}
		linked := snap.Subjects(prop, x)
		if det.Dir == Incoming {
			linked = snap.Objects(x, prop)
		}
		// Whether the support is positive now and was before (now − n)
		// needs a count only up to max(n, 0)+1.
		limit := max(n, 0) + 1
		now := 0
		for _, m := range linked {
			if member(m) {
				if now++; now == limit {
					break
				}
			}
		}
		if (now > 0) == (now-n > 0) {
			continue
		}
		d := 1
		if now == 0 {
			d = -1
		}
		for _, t := range snap.Objects(x, typeID) {
			shift[t] += d
		}
	}
	for t, d := range shift {
		if d == 0 {
			delete(shift, t)
		}
	}
	if len(shift) == 0 {
		return old, true
	}

	rows := make([]sparql.Solution, 0, len(old.Rows)+len(shift))
	for _, row := range old.Rows {
		t, found := dict.Lookup(row[det.TypeVar])
		d := shift[t]
		if !found || d == 0 {
			rows = append(rows, row)
			continue
		}
		delete(shift, t)
		n, err := strconv.Atoi(row[det.CountVar].Value)
		if err != nil || n+d < 0 {
			return nil, false
		}
		if n+d > 0 {
			rows = append(rows, sparql.Solution{det.TypeVar: row[det.TypeVar], det.CountVar: countTerm(n + d)})
		}
	}
	added := make([]rdf.ID, 0, len(shift))
	for t, d := range shift {
		if d < 0 {
			return nil, false // a count below zero: old was not this chart
		}
		added = append(added, t)
	}
	slices.Sort(added)
	for _, t := range added {
		rows = append(rows, sparql.Solution{det.TypeVar: dict.Term(t), det.CountVar: countTerm(shift[t])})
	}
	return &sparql.Result{Vars: old.Vars, Rows: sparql.OrderAndSlice(rows, det.q)}, true
}

// countTerm renders a count the way the engine renders COUNT.
func countTerm(n int) rdf.Term { return rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger) }
