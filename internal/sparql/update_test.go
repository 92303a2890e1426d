package sparql

import (
	"context"
	"sort"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// --- ParseUpdate ---

func TestParseInsertData(t *testing.T) {
	u, err := ParseUpdate(`PREFIX ex: <http://example.org/>
INSERT DATA { ex:a ex:p ex:b . ex:a ex:p "lit"@en }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 1 || u.Ops[0].Kind != InsertData {
		t.Fatalf("ops = %+v", u.Ops)
	}
	if len(u.Ops[0].Data) != 2 {
		t.Fatalf("data = %v", u.Ops[0].Data)
	}
	want := rdf.Triple{S: ex("a"), P: ex("p"), O: ex("b")}
	if u.Ops[0].Data[0] != want {
		t.Fatalf("triple 0 = %v, want %v", u.Ops[0].Data[0], want)
	}
	if u.Ops[0].Data[1].O != rdf.NewLangLiteral("lit", "en") {
		t.Fatalf("triple 1 object = %v", u.Ops[0].Data[1].O)
	}
}

func TestParseDeleteData(t *testing.T) {
	u, err := ParseUpdate(`DELETE DATA { <http://example.org/a> <http://example.org/p> <http://example.org/b> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 1 || u.Ops[0].Kind != DeleteData || len(u.Ops[0].Data) != 1 {
		t.Fatalf("ops = %+v", u.Ops)
	}
}

func TestParseDeleteWhere(t *testing.T) {
	u, err := ParseUpdate(`PREFIX ex: <http://example.org/>
DELETE WHERE { ?s ex:influencedBy ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 1 || u.Ops[0].Kind != DeleteWhere {
		t.Fatalf("ops = %+v", u.Ops)
	}
	if u.Ops[0].Where == nil || len(u.Ops[0].Where.Triples) != 1 {
		t.Fatalf("where = %+v", u.Ops[0].Where)
	}
}

func TestParseMultiOpRequest(t *testing.T) {
	u, err := ParseUpdate(`PREFIX ex: <http://example.org/>
INSERT DATA { ex:a ex:p ex:b } ;
DELETE DATA { ex:c ex:p ex:d } ;
DELETE WHERE { ?s ex:q ?o } ;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]UpdateKind, len(u.Ops))
	for i, op := range u.Ops {
		kinds[i] = op.Kind
	}
	want := []UpdateKind{InsertData, DeleteData, DeleteWhere}
	if len(kinds) != 3 || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"variable in INSERT DATA", `INSERT DATA { ?s <http://x/p> <http://x/o> }`, "variable"},
		{"variable in DELETE DATA", `DELETE DATA { <http://x/s> <http://x/p> ?o }`, "variable"},
		{"blank node in DELETE DATA", `DELETE DATA { _:b <http://x/p> <http://x/o> }`, "blank"},
		{"filter in DELETE WHERE", `DELETE WHERE { ?s ?p ?o FILTER(?o > 1) }`, "basic graph patterns"},
		{"empty DELETE WHERE", `DELETE WHERE { }`, "triple"},
		{"garbage after update", `INSERT DATA { <http://x/s> <http://x/p> <http://x/o> } nonsense`, ""},
		{"bare SELECT", `SELECT ?s WHERE { ?s ?p ?o }`, ""},
		{"missing DATA", `INSERT { <http://x/s> <http://x/p> <http://x/o> }`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseUpdate(c.src)
			if err == nil {
				t.Fatalf("ParseUpdate(%q) succeeded", c.src)
			}
			if c.wantErr != "" && !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.wantErr)) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}

// --- UpdateOps ---

func updateOps(t *testing.T, e *Engine, src string) []rdf.TripleOp {
	t.Helper()
	u, err := ParseUpdate(src)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := e.UpdateOps(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

func TestUpdateOpsInsertAndDeleteData(t *testing.T) {
	e := evalFixture(t)
	ops := updateOps(t, e, `PREFIX ex: <http://example.org/>
INSERT DATA { ex:new ex:p ex:o } ;
DELETE DATA { ex:plato ex:influencedBy ex:socrates }`)
	if len(ops) != 2 {
		t.Fatalf("ops = %v", ops)
	}
	if ops[0].Del || ops[0].Triple.S != ex("new") {
		t.Fatalf("op 0 = %+v", ops[0])
	}
	if !ops[1].Del || ops[1].Triple.S != ex("plato") {
		t.Fatalf("op 1 = %+v", ops[1])
	}
}

func TestUpdateOpsDeleteWhere(t *testing.T) {
	e := evalFixture(t)
	ops := updateOps(t, e, `PREFIX ex: <http://example.org/>
DELETE WHERE { ex:kant ex:influencedBy ?o }`)
	if len(ops) != 2 {
		t.Fatalf("DELETE WHERE matched %d ops, want 2 (hume, rousseau): %v", len(ops), ops)
	}
	var objs []string
	for _, op := range ops {
		if !op.Del || op.Triple.S != ex("kant") {
			t.Fatalf("unexpected op %+v", op)
		}
		objs = append(objs, op.Triple.O.Value)
	}
	sort.Strings(objs)
	if objs[0] != "http://example.org/hume" || objs[1] != "http://example.org/rousseau" {
		t.Fatalf("objects = %v", objs)
	}
}

func TestUpdateOpsDeleteWhereJoin(t *testing.T) {
	// The WHERE is a real BGP join: only philosophers' born triples go.
	e := evalFixture(t)
	ops := updateOps(t, e, `PREFIX ex: <http://example.org/>
DELETE WHERE { ?s a ex:Philosopher . ?s ex:born ?year }`)
	// Each solution instantiates the whole template: a type triple and a
	// born triple per philosopher, deduplicated.
	subjects := map[string]bool{}
	types, borns := 0, 0
	for _, op := range ops {
		if !op.Del {
			t.Fatalf("non-delete op %+v", op)
		}
		subjects[op.Triple.S.Value] = true
		switch op.Triple.P {
		case rdf.TypeIRI:
			types++
		case ex("born"):
			borns++
		default:
			t.Fatalf("unexpected predicate %v", op.Triple.P)
		}
	}
	if len(subjects) != 3 || types != 3 || borns != 3 {
		t.Fatalf("ops = %v (subjects %v, %d type / %d born)", ops, subjects, types, borns)
	}
}

func TestUpdateOpsDeleteWhereNoMatch(t *testing.T) {
	e := evalFixture(t)
	ops := updateOps(t, e, `PREFIX ex: <http://example.org/>
DELETE WHERE { ?s ex:absentPredicate ?o }`)
	if len(ops) != 0 {
		t.Fatalf("no-match DELETE WHERE produced ops: %v", ops)
	}
}

// TestUpdateRoundTripThroughStore drives the full op pipeline into
// Store.Apply and checks the store reflects the SPARQL request.
func TestUpdateRoundTripThroughStore(t *testing.T) {
	st := store.New(8)
	if _, err := st.Load([]rdf.Triple{
		{S: ex("a"), P: ex("p"), O: ex("b")},
		{S: ex("a"), P: ex("q"), O: ex("c")},
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(st)
	ops := updateOps(t, e, `PREFIX ex: <http://example.org/>
DELETE WHERE { ex:a ex:p ?o } ;
INSERT DATA { ex:x ex:p ex:y }`)
	res, err := st.Apply(store.DeltaOf(ops...))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 {
		t.Fatalf("ApplyResult = %+v", res)
	}
	if st.Snapshot().ContainsTriple(rdf.Triple{S: ex("a"), P: ex("p"), O: ex("b")}) {
		t.Fatal("deleted triple still present")
	}
	if !st.Snapshot().ContainsTriple(rdf.Triple{S: ex("x"), P: ex("p"), O: ex("y")}) {
		t.Fatal("inserted triple missing")
	}
	if !st.Snapshot().ContainsTriple(rdf.Triple{S: ex("a"), P: ex("q"), O: ex("c")}) {
		t.Fatal("unrelated triple vanished")
	}
}

// --- Footprint ---

func TestFootprintGuardSelection(t *testing.T) {
	cases := []struct {
		src                      string
		preds, subjects, objects int
		wild                     bool
	}{
		{src: `SELECT ?s WHERE { ?s <http://x/p> ?o }`, preds: 1},
		{src: `SELECT ?p WHERE { <http://x/s> ?p ?o }`, subjects: 1},
		{src: `SELECT ?s WHERE { ?s ?p <http://x/o> }`, objects: 1},
		{src: `SELECT ?s WHERE { ?s ?p ?o }`, wild: true},
		// Bound predicate wins even with a bound subject.
		{src: `SELECT ?o WHERE { <http://x/s> <http://x/p> ?o }`, preds: 1},
		// Two patterns, two guards.
		{src: `SELECT ?s WHERE { ?s <http://x/p> ?o . ?s <http://x/q> ?v }`, preds: 2},
		// One wild pattern poisons the whole footprint.
		{src: `SELECT ?s WHERE { ?s <http://x/p> ?o . ?a ?b ?c }`, wild: true},
	}
	for _, c := range cases {
		fp := QueryFootprint(c.src)
		if fp.Wild != c.wild {
			t.Errorf("%q: Wild = %v, want %v", c.src, fp.Wild, c.wild)
			continue
		}
		if len(fp.Preds) != c.preds || len(fp.Subjects) != c.subjects || len(fp.Objects) != c.objects {
			t.Errorf("%q: footprint %+v, want %d/%d/%d", c.src, fp, c.preds, c.subjects, c.objects)
		}
	}
}

func TestFootprintWalksNestedGroups(t *testing.T) {
	fp := QueryFootprint(`PREFIX ex: <http://example.org/>
SELECT ?s WHERE {
  ?s ex:p ?o .
  OPTIONAL { ?s ex:opt ?v }
  { ?s ex:u1 ?a } UNION { ?s ex:u2 ?b }
}`)
	if fp.Wild {
		t.Fatal("nested groups made the footprint wild")
	}
	if len(fp.Preds) != 4 {
		t.Fatalf("preds = %v, want 4 guards (p, opt, u1, u2)", fp.Preds)
	}
}

func TestFootprintUnparseableIsWild(t *testing.T) {
	if !QueryFootprint("THIS IS NOT SPARQL").Wild {
		t.Fatal("unparseable query must get the wild footprint")
	}
}

func TestFootprintOverlaps(t *testing.T) {
	fp := QueryFootprint(`SELECT ?s WHERE { ?s <http://x/p> ?o }`)
	hit := []rdf.TripleOp{rdf.Insert(rdf.Triple{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/o")})}
	miss := []rdf.TripleOp{rdf.Insert(rdf.Triple{S: rdf.NewIRI("http://x/p"), P: rdf.NewIRI("http://x/q"), O: rdf.NewIRI("http://x/p")})}
	if !fp.Overlaps(hit) {
		t.Fatal("matching predicate not detected")
	}
	if fp.Overlaps(miss) {
		t.Fatal("guard term in an unguarded position counted as overlap")
	}
	if !WildFootprint().Overlaps(miss) {
		t.Fatal("wild footprint must overlap everything")
	}
	var nilFp *Footprint
	if !nilFp.Overlaps(miss) {
		t.Fatal("nil footprint must overlap everything")
	}
	if fp.Overlaps(nil) {
		t.Fatal("empty op set overlaps nothing")
	}
}

// TestFootprintSoundnessDifferential: for a pool of queries and random
// single-triple mutations, if the footprint claims disjointness then the
// query's result over the mutated store must be unchanged.
func TestFootprintSoundnessDifferential(t *testing.T) {
	queries := []string{
		`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:influencedBy ?o }`,
		`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s a ex:Philosopher }`,
		`PREFIX ex: <http://example.org/> SELECT ?o WHERE { ex:plato ?p ?o }`,
		`PREFIX ex: <http://example.org/> SELECT ?s ?y WHERE { ?s a ex:Philosopher . ?s ex:born ?y }`,
		`PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ?p ex:hume }`,
	}
	mutations := []rdf.TripleOp{
		rdf.Insert(rdf.Triple{S: ex("zeno"), P: ex("influencedBy"), O: ex("parmenides")}),
		rdf.Delete(rdf.Triple{S: ex("kant"), P: ex("influencedBy"), O: ex("hume")}),
		rdf.Insert(rdf.Triple{S: ex("zeno"), P: rdf.TypeIRI, O: ex("Philosopher")}),
		rdf.Insert(rdf.Triple{S: ex("plato"), P: ex("diedIn"), O: ex("athens")}),
		rdf.Insert(rdf.Triple{S: ex("unrelated"), P: ex("q"), O: ex("v")}),
		rdf.Delete(rdf.Triple{S: ex("plato"), P: ex("born"), O: rdf.NewTypedLiteral("-427", rdf.XSDInteger)}),
	}
	for mi, mut := range mutations {
		for qi, src := range queries {
			// Fresh fixture per pair: mutations must not accumulate.
			e := evalFixture(t)
			st := e.Store()
			fp := QueryFootprint(src)
			before := canonRows(t, e, src)
			if _, err := st.Apply(store.DeltaOf(mut)); err != nil {
				t.Fatal(err)
			}
			after := canonRows(t, e, src)
			changed := before != after
			if changed && !fp.Overlaps([]rdf.TripleOp{mut}) {
				t.Fatalf("mutation %d changed query %d's result but footprint %+v claims disjoint", mi, qi, fp)
			}
		}
	}
}

func canonRows(t *testing.T, e *Engine, src string) string {
	t.Helper()
	res := runQ(t, e, src)
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range res.Vars {
			sb.WriteString(row[v].String())
			sb.WriteByte('|')
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
