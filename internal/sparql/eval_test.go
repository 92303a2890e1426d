package sparql

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

func ex(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }

// evalFixture builds a small philosopher graph.
func evalFixture(t *testing.T) *Engine {
	t.Helper()
	st := store.New(64)
	ts := []rdf.Triple{
		{S: ex("Philosopher"), P: rdf.SubClassOfIRI, O: ex("Person")},
		{S: ex("plato"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("aristotle"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("kant"), P: rdf.TypeIRI, O: ex("Philosopher")},
		{S: ex("alice"), P: rdf.TypeIRI, O: ex("Person")},
		{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)},
		{S: ex("aristotle"), P: ex("born"), O: rdf.NewTypedLiteral("-384", rdf.XSDInteger)},
		{S: ex("kant"), P: ex("born"), O: rdf.NewTypedLiteral("1724", rdf.XSDInteger)},
		{S: ex("plato"), P: ex("influencedBy"), O: ex("socrates")},
		{S: ex("aristotle"), P: ex("influencedBy"), O: ex("plato")},
		{S: ex("kant"), P: ex("influencedBy"), O: ex("hume")},
		{S: ex("kant"), P: ex("influencedBy"), O: ex("rousseau")},
		{S: ex("plato"), P: rdf.LabelIRI, O: rdf.NewLangLiteral("Plato", "en")},
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	return NewEngine(st)
}

func runQ(t *testing.T, e *Engine, src string) *Result {
	t.Helper()
	res, err := e.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("Query failed: %v\n%s", err, src)
	}
	return res
}

func TestEvalSimpleBGP(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s a ex:Philosopher . }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestEvalJoin(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s ?o WHERE { ?s a ex:Philosopher . ?s ex:influencedBy ?o . }`)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: ex("a"), P: ex("p"), O: ex("a")},
		{S: ex("a"), P: ex("p"), O: ex("b")},
	})
	e := NewEngine(st)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?x WHERE { ?x ex:p ?x . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only the self-loop)", len(res.Rows))
	}
	if res.Rows[0]["x"] != ex("a") {
		t.Errorf("x = %v", res.Rows[0]["x"])
	}
}

func TestEvalFilterComparison(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:born ?y . FILTER (?y > 0) }`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != ex("kant") {
		t.Fatalf("rows = %+v, want kant only", res.Rows)
	}
}

func TestEvalFilterStringFuncs(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s a ex:Philosopher . FILTER (CONTAINS(STR(?s), "ari")) }`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != ex("aristotle") {
		t.Fatalf("rows = %+v", res.Rows)
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s a ex:Philosopher . FILTER REGEX(STR(?s), "PLATO$", "i") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("regex rows = %d", len(res.Rows))
	}
}

func TestEvalOptional(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s ?lbl WHERE { ?s a ex:Philosopher . OPTIONAL { ?s rdfs:label ?lbl . } }`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	withLabel := 0
	for _, r := range res.Rows {
		if _, ok := r["lbl"]; ok {
			withLabel++
		}
	}
	if withLabel != 1 {
		t.Errorf("rows with label = %d, want 1 (plato)", withLabel)
	}
}

func TestEvalBoundFilter(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s a ex:Philosopher . OPTIONAL { ?s rdfs:label ?lbl . } FILTER (!BOUND(?lbl)) }`)
	if len(res.Rows) != 2 {
		t.Fatalf("unlabeled philosophers = %d, want 2", len(res.Rows))
	}
}

func TestEvalUnion(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?x WHERE { { ?x a ex:Philosopher . } UNION { ?x a ex:Person . } }`)
	if len(res.Rows) != 4 {
		t.Fatalf("union rows = %d, want 4", len(res.Rows))
	}
}

func TestEvalGroupByCount(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:influencedBy ?o . } GROUP BY ?s ORDER BY DESC(?n)`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	if res.Rows[0]["s"] != ex("kant") {
		t.Errorf("top influenced = %v, want kant", res.Rows[0]["s"])
	}
	if res.Rows[0]["n"].Value != "2" {
		t.Errorf("kant count = %v", res.Rows[0]["n"])
	}
}

func TestEvalCountDistinct(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: ex("s"), P: ex("p"), O: ex("o1")},
		{S: ex("s"), P: ex("p"), O: ex("o2")},
		{S: ex("s"), P: ex("q"), O: ex("o1")},
	})
	e := NewEngine(st)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ex:s ?p ?o . }`)
	if res.Rows[0]["n"].Value != "2" {
		t.Errorf("distinct count = %v", res.Rows[0]["n"])
	}
}

func TestEvalAggregatesOverEmpty(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT (COUNT(*) AS ?n) WHERE { ?s a ex:Nonexistent . }`)
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "0" {
		t.Fatalf("COUNT over empty = %+v", res.Rows)
	}
}

func TestEvalSumAvgMinMax(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT (SUM(?y) AS ?sum) (AVG(?y) AS ?avg) (MIN(?y) AS ?min) (MAX(?y) AS ?max)
WHERE { ?s ex:born ?y . }`)
	r := res.Rows[0]
	if r["sum"].Value != "913" { // -427 + -384 + 1724
		t.Errorf("sum = %v", r["sum"])
	}
	if r["min"].Value != "-427" || r["max"].Value != "1724" {
		t.Errorf("min/max = %v/%v", r["min"], r["max"])
	}
}

func TestEvalHaving(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:influencedBy ?o . }
GROUP BY ?s HAVING (COUNT(?o) > 1)`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != ex("kant") {
		t.Fatalf("having rows = %+v", res.Rows)
	}
}

func TestEvalSubselect(t *testing.T) {
	e := evalFixture(t)
	// The paper's two-level decomposer query shape.
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?p (COUNT(?p) AS ?count) (SUM(?sp) AS ?spsum) WHERE {
  { SELECT ?s ?p (COUNT(*) AS ?sp) WHERE { ?s a ex:Philosopher . ?s ?p ?o . } GROUP BY ?s ?p }
} GROUP BY ?p ORDER BY DESC(?count)`)
	// Properties on philosophers: rdf:type(3), born(3), influencedBy(3 subjects), rdfs:label(1)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4:\n%+v", len(res.Rows), res.Rows)
	}
	counts := map[string]string{}
	sums := map[string]string{}
	for _, r := range res.Rows {
		counts[r["p"].Value] = r["count"].Value
		sums[r["p"].Value] = r["spsum"].Value
	}
	if counts["http://example.org/influencedBy"] != "3" {
		t.Errorf("influencedBy subject count = %v", counts["http://example.org/influencedBy"])
	}
	if sums["http://example.org/influencedBy"] != "4" {
		t.Errorf("influencedBy triple sum = %v", sums["http://example.org/influencedBy"])
	}
}

func TestEvalPaperQueryVerbatim(t *testing.T) {
	// Exactly the query printed in Section 4 of the paper (Virtuoso
	// dialect with FROM-subquery and bare aggregates).
	e := evalFixture(t)
	src := `SELECT ?p COUNT(?p) AS ?count SUM(?sp) AS ?sp
FROM {SELECT ?s ?p count(*) AS ?sp
FROM {?s a <http://example.org/Philosopher>. ?s ?p ?o.}
GROUP BY ?s ?p} GROUP BY ?p`
	res, err := e.Query(context.Background(), src)
	if err != nil {
		t.Fatalf("paper query failed to run: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestEvalDistinct(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?p WHERE { ?s ?p ?o . }`)
	seen := map[string]bool{}
	for _, r := range res.Rows {
		v := r["p"].Value
		if seen[v] {
			t.Fatalf("duplicate %s", v)
		}
		seen[v] = true
	}
}

func TestEvalOrderLimitOffset(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s ?y WHERE { ?s ex:born ?y . } ORDER BY ?y LIMIT 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["s"] != ex("plato") || res.Rows[1]["s"] != ex("aristotle") {
		t.Errorf("order wrong: %+v", res.Rows)
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s ?y WHERE { ?s ex:born ?y . } ORDER BY ?y OFFSET 2`)
	if len(res.Rows) != 1 || res.Rows[0]["s"] != ex("kant") {
		t.Errorf("offset wrong: %+v", res.Rows)
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:born ?y . } OFFSET 99`)
	if len(res.Rows) != 0 {
		t.Errorf("offset beyond end: %+v", res.Rows)
	}
}

func TestEvalAsk(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/> ASK { ex:plato a ex:Philosopher . }`)
	if !res.Ask || !res.AskTrue {
		t.Errorf("ASK = %+v", res)
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/> ASK { ex:plato a ex:Dog . }`)
	if res.AskTrue {
		t.Error("ASK should be false")
	}
}

func TestEvalSelectExpression(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s ((?y + 2000) AS ?shifted) WHERE { ?s ex:born ?y . FILTER (?s = ex:kant) }`)
	if res.Rows[0]["shifted"].Value != "3724" {
		t.Errorf("expression projection = %v", res.Rows[0]["shifted"])
	}
}

func TestEvalContextCancellation(t *testing.T) {
	st := store.New(1024)
	var ts []rdf.Triple
	for i := 0; i < 2000; i++ {
		ts = append(ts, rdf.Triple{S: ex(fmt.Sprintf("s%d", i)), P: ex("p"), O: ex(fmt.Sprintf("o%d", i))})
	}
	st.Load(ts)
	e := NewEngine(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Query(ctx, `SELECT ?a ?b WHERE { ?a <http://example.org/p> ?x . ?b <http://example.org/p> ?y . }`)
	if err == nil {
		t.Error("cancelled context should abort evaluation")
	}
}

func TestEvalUnboundTermNoMatch(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `SELECT ?s WHERE { ?s a <http://never.interned/X> . }`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestEvalStarProjection(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT * WHERE { ?s ex:influencedBy ?o . }`)
	sort.Strings(res.Vars)
	if len(res.Vars) != 2 || res.Vars[0] != "o" || res.Vars[1] != "s" {
		t.Errorf("star vars = %v", res.Vars)
	}
}

func TestEvalCrossProduct(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: ex("a"), P: ex("p"), O: ex("x")},
		{S: ex("b"), P: ex("q"), O: ex("y")},
	})
	e := NewEngine(st)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?m ?n WHERE { ?m ex:p ?x . ?n ex:q ?y . }`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0]["m"] != ex("a") || res.Rows[0]["n"] != ex("b") {
		t.Errorf("cross product row: %+v", res.Rows[0])
	}
}

func TestEvalLangAndDatatypeFuncs(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s rdfs:label ?l . FILTER (LANG(?l) = "en") }`)
	if len(res.Rows) != 1 {
		t.Fatalf("lang filter rows = %d", len(res.Rows))
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:born ?y . FILTER (DATATYPE(?y) = xsd:integer) }`)
	if len(res.Rows) != 3 {
		t.Fatalf("datatype filter rows = %d", len(res.Rows))
	}
}

func TestEvalIsIRIIsLiteral(t *testing.T) {
	e := evalFixture(t)
	res := runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:plato ?p ?o . FILTER (ISLITERAL(?o)) }`)
	if len(res.Rows) != 2 { // born + label
		t.Fatalf("literal objects = %d, want 2", len(res.Rows))
	}
	res = runQ(t, e, `PREFIX ex: <http://example.org/>
SELECT ?o WHERE { ex:plato ?p ?o . FILTER (ISIRI(?o)) }`)
	if len(res.Rows) != 2 { // type + influencedBy
		t.Fatalf("IRI objects = %d, want 2", len(res.Rows))
	}
}
