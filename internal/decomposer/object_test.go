package decomposer

import (
	"context"
	"testing"

	"elinda/internal/core"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// TestDetectObject: both directions of the explorer's object expansion
// are detected with their constants and column names, as are spellings
// that only rename, reorder the projection or order by the type.
func TestDetectObject(t *testing.T) {
	cases := []struct {
		src      string
		dir      Direction
		typ, cnt string
	}{
		{core.ObjectExpansionSPARQL(ex("C"), ex("p"), false), Outgoing, "t", "n"},
		{core.ObjectExpansionSPARQL(ex("C"), ex("p"), true), Incoming, "t", "n"},
		{`SELECT (COUNT(DISTINCT ?y) AS ?k) ?c WHERE { ?y a ?c . ?x <http://example.org/p> ?y . ?x a <http://example.org/C> . } GROUP BY ?c ORDER BY ?c`, Outgoing, "c", "k"},
		{`SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s a <http://example.org/C> . ?o <http://example.org/p> ?s . ?o a ?t . } GROUP BY ?t`, Incoming, "t", "n"},
	}
	for _, c := range cases {
		q, err := sparql.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		det, ok := DetectObject(q)
		if !ok {
			t.Fatalf("not detected: %s", c.src)
		}
		if det.Class != ex("C") || det.Prop != ex("p") || det.Dir != c.dir || det.TypeVar != c.typ || det.CountVar != c.cnt {
			t.Fatalf("%s: detected %+v", c.src, det)
		}
		if _, isExpansion := Detect(q); isExpansion {
			t.Fatalf("an object expansion detected as a property expansion: %s", c.src)
		}
	}
}

// TestDetectRejectsValues: VALUES narrows the rows a property expansion
// counts, which the index pass cannot honour, so a query carrying it — in
// the single-level form or in the two-level form's subselect — must reach
// the engine (or agree with it).
func TestDetectRejectsValues(t *testing.T) {
	st := fixture(t)
	d := New(st)
	eng := sparql.NewEngine(st)
	for _, src := range []string{
		`SELECT ?p (COUNT(DISTINCT ?s) AS ?c) WHERE { ?s a <http://example.org/Philosopher> . ?s ?p ?o . VALUES ?p { <http://example.org/born> } } GROUP BY ?p`,
		`SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/Philosopher>. ?s ?p ?o. VALUES ?p { <http://example.org/born> }}
GROUP BY ?s ?p} GROUP BY ?p`,
	} {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) != 1 || want.Rows[0]["p"] != ex("born") {
			t.Fatalf("engine rows %v, want only the born row", want.Rows)
		}
		if got, ok := d.TryExecute(q); ok {
			assertSameRows(t, got, want)
		}
	}
}

// TestFoldObjectRefusesTypeWrites: a write on rdf:type may move class
// membership or an object's types, so the fold hands it back for eviction.
func TestFoldObjectRefusesTypeWrites(t *testing.T) {
	st := fixture(t)
	q, err := sparql.Parse(core.ObjectExpansionSPARQL(ex("Philosopher"), ex("influencedBy"), false))
	if err != nil {
		t.Fatal(err)
	}
	det, ok := DetectObject(q)
	if !ok {
		t.Fatal("not detected")
	}
	old, err := sparql.NewEngine(st).Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("hume"), P: rdf.TypeIRI, O: ex("Philosopher")})))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := FoldObject(st.Snapshot(), det, old, res); ok {
		t.Fatal("folded a type write")
	}
	// A link write folds, but not onto a snapshot at another generation.
	res, err = st.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("influencedBy"), O: ex("hume")})))
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if _, ok := FoldObject(snap, det, old, res); !ok {
		t.Fatal("refused a link write")
	}
	if _, err := st.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("x"), P: ex("y"), O: ex("z")}))); err != nil {
		t.Fatal(err)
	}
	if _, ok := FoldObject(st.Snapshot(), det, old, res); ok {
		t.Fatal("folded onto a snapshot past the write")
	}
}
