package proxy

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"elinda/internal/core"
	"elinda/internal/decomposer"
	"elinda/internal/endpoint"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// foldStore is a small graph for object-expansion folds: members m0..m19
// typed C (m20..m23 untyped), objects x0..x7 with one to three of the
// types T0..T3 (x7 untyped), and literals. Outgoing links m p x and
// incoming links x q m are sparse, so an object's support — the members
// linked to it — is often 0, 1 or 2 and writes cross zero often.
func foldStore(t *testing.T, r *rand.Rand) *store.Store {
	t.Helper()
	var initial []rdf.Triple
	for i := 0; i < 20; i++ {
		initial = append(initial, rdf.Triple{S: ex(fmt.Sprintf("m%d", i)), P: rdf.TypeIRI, O: ex("C")})
	}
	for i := 0; i < 7; i++ {
		for k := 0; k < 1+i%3; k++ {
			initial = append(initial, rdf.Triple{S: ex(fmt.Sprintf("x%d", i)), P: rdf.TypeIRI, O: ex(fmt.Sprintf("T%d", (i+k)%4))})
		}
	}
	for i := 0; i < 12; i++ {
		initial = append(initial, foldLink(r))
	}
	st := store.New(1024)
	if _, err := st.Load(initial); err != nil {
		t.Fatal(err)
	}
	return st
}

// foldLink is a random outgoing (m p x, x possibly a literal) or incoming
// (x q m) link from any of the 24 m-nodes.
func foldLink(r *rand.Rand) rdf.Triple {
	m := ex(fmt.Sprintf("m%d", r.Intn(24)))
	x := ex(fmt.Sprintf("x%d", r.Intn(8)))
	switch r.Intn(5) {
	case 0:
		return rdf.Triple{S: m, P: ex("p"), O: rdf.NewLiteral(fmt.Sprintf("lit%d", r.Intn(3)))}
	case 1, 2:
		return rdf.Triple{S: m, P: ex("p"), O: x}
	default:
		return rdf.Triple{S: x, P: ex("q"), O: m}
	}
}

// foldDelta is a random write: one to three link inserts or deletes; on
// one write in four a second member linked to (or unlinked from) one
// object in the same write; and on one in eight a type triple — a
// membership flip or an object gaining or losing a type.
func foldDelta(r *rand.Rand, st *store.Store) (d store.Delta, typeWrite bool) {
	snap := st.Snapshot()
	toggle := func(tr rdf.Triple) {
		if snap.ContainsTriple(tr) {
			d.Delete(tr)
		} else {
			d.Insert(tr)
		}
	}
	for k := 1 + r.Intn(3); k > 0; k-- {
		toggle(foldLink(r))
	}
	if r.Intn(4) == 0 {
		x := ex(fmt.Sprintf("x%d", r.Intn(8)))
		a, b := ex(fmt.Sprintf("m%d", r.Intn(12))), ex(fmt.Sprintf("m%d", 12+r.Intn(12)))
		pair := []rdf.Triple{{S: a, P: ex("p"), O: x}, {S: b, P: ex("p"), O: x}}
		if r.Intn(2) == 0 {
			pair = []rdf.Triple{{S: x, P: ex("q"), O: a}, {S: x, P: ex("q"), O: b}}
		}
		if r.Intn(2) == 0 {
			d.Insert(pair[0])
			d.Insert(pair[1])
		} else {
			d.Delete(pair[0])
			d.Delete(pair[1])
		}
	}
	if r.Intn(8) == 0 {
		typeWrite = true
		if r.Intn(2) == 0 {
			toggle(rdf.Triple{S: ex(fmt.Sprintf("m%d", r.Intn(24))), P: rdf.TypeIRI, O: ex("C")})
		} else {
			toggle(rdf.Triple{S: ex(fmt.Sprintf("x%d", r.Intn(8))), P: rdf.TypeIRI, O: ex(fmt.Sprintf("T%d", r.Intn(4)))})
		}
	}
	return d, typeWrite
}

// TestFoldedObjectEqualsEngineUnderDeltas sends random writes through
// Apply and, after each, compares every cached object expansion — both
// directions, ordered by count and by type — with the engine's answer on
// the same store. Writes that cross zero must rewrite the entry, two
// links to one object in one write must count once, literal objects
// (no type) and multi-typed objects must count right, and a type write
// must evict.
func TestFoldedObjectEqualsEngineUnderDeltas(t *testing.T) {
	queries := []string{
		core.ObjectExpansionSPARQL(ex("C"), ex("p"), false),
		core.ObjectExpansionSPARQL(ex("C"), ex("q"), true),
		`SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s a <http://example.org/C> . ?s <http://example.org/p> ?o . ?o a ?t . } GROUP BY ?t ORDER BY ?t`,
	}
	var folds, typeWrites int
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := foldStore(t, r)
		p := New(st, Options{HeavyThreshold: time.Nanosecond})
		eng := sparql.NewEngine(st)
		for step := 0; step < 60; step++ {
			for _, q := range queries {
				if _, err := p.Query(context.Background(), q); err != nil {
					t.Fatal(err)
				}
			}
			d, typeWrite := foldDelta(r, st)
			before := p.HVS().Stats().DeltaFolded
			res, err := p.Apply(d)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Changed() {
				continue
			}
			folds += p.HVS().Stats().DeltaFolded - before
			if typeWrite {
				typeWrites++
			}
			for _, q := range queries {
				e, cached := p.HVS().Entry(q)
				if typeWrite {
					if cached {
						t.Fatalf("seed %d step %d: a type write kept %q", seed, step, q)
					}
					continue
				}
				if !cached {
					t.Fatalf("seed %d step %d: a link write evicted %q", seed, step, q)
				}
				want, err := eng.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if got := canon(e.Result); got != canon(want) {
					t.Fatalf("seed %d step %d: folded %q\n%s\nengine\n%s", seed, step, q, got, canon(want))
				}
				assertOrdered(t, e.Result, q)
			}
		}
	}
	if folds == 0 || typeWrites == 0 {
		t.Fatalf("the deltas never rewrote an entry (%d) or wrote a type (%d)", folds, typeWrites)
	}
	t.Logf("%d rewrites, %d type writes", folds, typeWrites)
}

// assertOrdered checks a folded chart honours its query's one ORDER BY
// key: the key column reads the same as after sorting the rows again.
func assertOrdered(t *testing.T, res *sparql.Result, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	key := q.OrderBy[0].Expr.(*sparql.VarExpr).Name
	sorted := sparql.OrderAndSlice(append([]sparql.Solution(nil), res.Rows...), q)
	for i := range sorted {
		if sorted[i][key] != res.Rows[i][key] {
			t.Fatalf("row %d out of ORDER BY order: %v", i, res.Rows)
		}
	}
}

// TestObjectNearMissesEvict: every near miss of the object-expansion
// shape is rejected by DetectObject and stays evict-on-overlap. The first
// write holds only link triples, which a detected shape would fold and
// keep, so it must evict every near miss it overlaps; the one whose link
// is rdf:type overlaps only the second, a type write.
func TestObjectNearMissesEvict(t *testing.T) {
	const (
		c    = `<http://example.org/C>`
		link = `?s <http://example.org/p> ?o . `
		bgp  = `?s a ` + c + ` . ` + link + `?o a ?t . `
	)
	nearMisses := map[string]string{
		"limit":            `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t ORDER BY DESC(?n) LIMIT 2`,
		"offset":           `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t ORDER BY DESC(?n) OFFSET 1`,
		"having":           `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t HAVING (COUNT(DISTINCT ?o) > 1)`,
		"distinct":         `SELECT DISTINCT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t`,
		"filter":           `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `FILTER (?t != <http://example.org/T0>) } GROUP BY ?t`,
		"optional":         `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `OPTIONAL { ?o <http://example.org/q> ?z . } } GROUP BY ?t`,
		"values":           `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `VALUES ?t { <http://example.org/T0> } } GROUP BY ?t`,
		"count-all":        `SELECT ?t (COUNT(?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t`,
		"type-link":        `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s a ` + c + ` . ?s a ?o . ?o a ?t . } GROUP BY ?t`,
		"self-link":        `SELECT ?t (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ` + c + ` . ?s <http://example.org/p> ?s . ?s a ?t . } GROUP BY ?t`,
		"extra-projection": `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) (COUNT(?s) AS ?k) WHERE { ` + bgp + `} GROUP BY ?t`,
		"order-expression": `SELECT ?t (COUNT(DISTINCT ?o) AS ?n) WHERE { ` + bgp + `} GROUP BY ?t ORDER BY DESC(?n + 0)`,
	}
	r := rand.New(rand.NewSource(3))
	st := foldStore(t, r)
	p := New(st, Options{HeavyThreshold: time.Nanosecond})
	for name, src := range nearMisses {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := decomposer.DetectObject(q); ok {
			t.Fatalf("%s: detected as an object expansion", name)
		}
		if _, err := p.Query(context.Background(), src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, cached := p.HVS().Entry(src); !cached {
			t.Fatalf("%s: not cached", name)
		}
	}
	// m0 gains a link to every object (supports cross zero), and m0 a
	// link to itself.
	var links store.Delta
	for i := 0; i < 8; i++ {
		links.Insert(rdf.Triple{S: ex("m0"), P: ex("p"), O: ex("x" + strconv.Itoa(i))})
	}
	links.Insert(rdf.Triple{S: ex("m0"), P: ex("p"), O: ex("m0")})
	typeWrite := store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("m0"), P: rdf.TypeIRI, O: ex("x0")}))
	for i, d := range []store.Delta{links, typeWrite} {
		if _, err := p.Apply(d); err != nil {
			t.Fatal(err)
		}
		for name, src := range nearMisses {
			overlaps := name != "type-link" || i == 1
			if _, cached := p.HVS().Entry(src); cached && overlaps {
				t.Errorf("%s: survived a write it overlaps", name)
			}
		}
	}
}

// TestWriteDuringBackendQueryIsNotFoldedTwice: the backend binds its own
// snapshot, so a write through Apply while a query runs — carried into
// the caches before that query's answer is recorded — may already be in
// that answer. Stored at the generation the query started at, the
// write's fold would count it a second time; the entry must instead match
// the engine, and a later answer recorded at a settled generation must
// still be folded.
func TestWriteDuringBackendQueryIsNotFoldedTwice(t *testing.T) {
	st := store.New(64)
	if _, err := st.Load([]rdf.Triple{
		{S: ex("m0"), P: rdf.TypeIRI, O: ex("C")},
		{S: ex("m1"), P: rdf.TypeIRI, O: ex("C")},
		{S: ex("x0"), P: rdf.TypeIRI, O: ex("T0")},
		{S: ex("x1"), P: rdf.TypeIRI, O: ex("T0")},
	}); err != nil {
		t.Fatal(err)
	}
	eng := sparql.NewEngine(st)
	var p *Proxy
	wrote := false
	backend := endpoint.ExecutorFunc(func(ctx context.Context, src string) (*sparql.Result, error) {
		if !wrote {
			wrote = true
			if _, err := p.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("m0"), P: ex("p"), O: ex("x0")}))); err != nil {
				return nil, err
			}
		}
		return eng.Query(ctx, src)
	})
	p = NewWithBackend(st, backend, Options{HeavyThreshold: time.Nanosecond})
	q := core.ObjectExpansionSPARQL(ex("C"), ex("p"), false)
	check := func(when string) {
		t.Helper()
		want, err := eng.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if e, cached := p.HVS().Entry(q); cached && canon(e.Result) != canon(want) {
			t.Fatalf("%s: cached\n%s\nengine\n%s", when, canon(e.Result), canon(want))
		}
	}
	if _, err := p.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	check("after the mid-query write")

	if _, err := p.Query(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Apply(store.DeltaOf(rdf.Insert(rdf.Triple{S: ex("m1"), P: ex("p"), O: ex("x1")}))); err != nil {
		t.Fatal(err)
	}
	if _, cached := p.HVS().Entry(q); !cached || p.HVS().Stats().DeltaFolded != 1 {
		t.Fatalf("a zero crossing at a settled generation was not folded (cached %v, stats %+v)", cached, p.HVS().Stats())
	}
	check("after a settled write")
}
