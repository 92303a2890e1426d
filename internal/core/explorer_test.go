package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"elinda/internal/decomposer"
	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

func ont(s string) rdf.Term { return rdf.NewIRI("http://t/onto/" + s) }
func res(s string) rdf.Term { return rdf.NewIRI("http://t/res/" + s) }

// testFixture builds the running example of the paper:
//
//	owl:Thing ← Agent ← Person ← Philosopher
//	          ← Place
//	philosophers influencedBy scientists/philosophers; born in places.
func testFixture(t *testing.T) *Explorer {
	t.Helper()
	st := store.New(256)
	var ts []rdf.Triple
	sub := func(c string, parent rdf.Term) {
		ts = append(ts,
			rdf.Triple{S: ont(c), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
			rdf.Triple{S: ont(c), P: rdf.SubClassOfIRI, O: parent})
	}
	ts = append(ts, rdf.Triple{S: rdf.OWLThingIRI, P: rdf.TypeIRI, O: rdf.OWLClassIRI})
	sub("Agent", rdf.OWLThingIRI)
	sub("Place", rdf.OWLThingIRI)
	sub("Person", ont("Agent"))
	sub("Philosopher", ont("Person"))
	sub("Scientist", ont("Person"))

	typ := func(inst rdf.Term, classes ...rdf.Term) {
		for _, c := range classes {
			ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: c})
		}
		ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: rdf.OWLThingIRI})
	}
	phil := func(name string) rdf.Term {
		p := res(name)
		typ(p, ont("Philosopher"), ont("Person"), ont("Agent"))
		return p
	}
	sci := func(name string) rdf.Term {
		s := res(name)
		typ(s, ont("Scientist"), ont("Person"), ont("Agent"))
		return s
	}
	plato := phil("plato")
	aristotle := phil("aristotle")
	kant := phil("kant")
	newton := sci("newton")
	euler := sci("euler")

	vienna := res("vienna")
	athens := res("athens")
	typ(vienna, ont("Place"))
	typ(athens, ont("Place"))

	add := func(s, p, o rdf.Term) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	add(plato, ont("influencedBy"), res("socrates"))
	add(aristotle, ont("influencedBy"), plato)
	add(kant, ont("influencedBy"), newton)
	add(kant, ont("influencedBy"), euler)
	add(plato, ont("birthPlace"), athens)
	add(kant, ont("birthPlace"), vienna)
	add(aristotle, ont("birthPlace"), athens)
	add(plato, rdf.LabelIRI, rdf.NewLangLiteral("Plato", "en"))
	add(res("work1"), ont("author"), plato)
	add(res("work2"), ont("author"), kant)

	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	return NewExplorer(st)
}

func TestRootBarIsOwlThing(t *testing.T) {
	e := testFixture(t)
	root := e.RootBar()
	if root.Label != rdf.OWLThingIRI {
		t.Errorf("root label = %v", root.Label)
	}
	// Every typed instance carries owl:Thing, so |S| = 9 instances
	// (3 phil + 2 sci + 2 places ... plus none for socrates/works: they
	// are untyped).
	if root.Len() != 7 {
		t.Errorf("|S| = %d, want 7", root.Len())
	}
}

func TestSubclassExpansionSemantics(t *testing.T) {
	e := testFixture(t)
	chart, err := e.Expand(e.RootBar(), SubclassExpansion)
	if err != nil {
		t.Fatal(err)
	}
	if chart.Kind != SubclassExpansion {
		t.Errorf("kind = %v", chart.Kind)
	}
	// Two bars: Agent (5) and Place (2), sorted by decreasing height.
	if len(chart.Bars) != 2 {
		t.Fatalf("bars = %d, want 2", len(chart.Bars))
	}
	if chart.Bars[0].LabelText != "Agent" || chart.Bars[0].Count != 5 {
		t.Errorf("bar 0: %s=%d", chart.Bars[0].LabelText, chart.Bars[0].Count)
	}
	if chart.Bars[1].LabelText != "Place" || chart.Bars[1].Count != 2 {
		t.Errorf("bar 1: %s=%d", chart.Bars[1].LabelText, chart.Bars[1].Count)
	}
}

// TestSubclassExpansionInvariant: every bar's set is a subset of the
// parent's, and counts equal the type-filtered intersection.
func TestSubclassExpansionInvariant(t *testing.T) {
	e := testFixture(t)
	parent := e.ClassBar(ont("Person"))
	chart := e.subclassExpansion(parent)
	parentSet := idSet(parent.Set())
	for _, b := range chart.Bars {
		if b.Count != len(b.Bar.Set()) {
			t.Errorf("%s: count %d != |set| %d", b.LabelText, b.Count, len(b.Bar.Set()))
		}
		for _, id := range b.Bar.Set() {
			if _, in := parentSet[id]; !in {
				t.Errorf("%s: member %v outside parent set", b.LabelText, id)
			}
		}
	}
}

func TestPropertyExpansionOutgoing(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	chart := e.propertyExpansion(phil, false)
	get := func(name string) ChartBar {
		b, ok := chart.Bar(ont(name))
		if !ok {
			t.Fatalf("property %s missing", name)
		}
		return *b
	}
	inf := get("influencedBy")
	if inf.Count != 3 || inf.Triples != 4 {
		t.Errorf("influencedBy = count %d triples %d, want 3/4", inf.Count, inf.Triples)
	}
	if inf.Coverage != 1.0 {
		t.Errorf("influencedBy coverage = %f", inf.Coverage)
	}
	bp := get("birthPlace")
	if bp.Count != 3 {
		t.Errorf("birthPlace count = %d", bp.Count)
	}
	// rdfs:label covers only plato: coverage 1/3.
	lbl, ok := chart.Bar(rdf.LabelIRI)
	if !ok || lbl.Count != 1 {
		t.Errorf("label bar: %+v ok=%v", lbl, ok)
	}
}

func TestPropertyExpansionIncoming(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	chart := e.propertyExpansion(phil, true)
	// author enters plato and kant; influencedBy enters plato (from
	// aristotle).
	author, ok := chart.Bar(ont("author"))
	if !ok || author.Count != 2 || author.Triples != 2 {
		t.Errorf("author: %+v ok=%v", author, ok)
	}
	inf, ok := chart.Bar(ont("influencedBy"))
	if !ok || inf.Count != 1 {
		t.Errorf("incoming influencedBy: %+v ok=%v", inf, ok)
	}
}

func TestPropertyExpansionMatchesDecomposer(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	philID, _ := e.st.Dict().Lookup(ont("Philosopher"))
	for _, incoming := range []bool{false, true} {
		chart := e.propertyExpansion(phil, incoming)
		dir := dirOf(incoming)
		stats := decomposer.New(e.st).PropertyStats(philID, dir)
		if len(chart.Bars) != len(stats) {
			t.Fatalf("incoming=%v: %d bars vs %d decomposer stats", incoming, len(chart.Bars), len(stats))
		}
		byProp := map[rdf.ID]ChartBar{}
		for _, b := range chart.Bars {
			id, _ := e.st.Dict().Lookup(b.Bar.Label)
			byProp[id] = b
		}
		for _, s := range stats {
			b, ok := byProp[s.Property]
			if !ok || b.Count != s.Subjects || b.Triples != s.Triples {
				t.Errorf("incoming=%v property %v: chart (%d,%d) vs decomposer (%d,%d)",
					incoming, s.Property, b.Count, b.Triples, s.Subjects, s.Triples)
			}
		}
	}
}

func TestObjectExpansion(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	propChart := e.propertyExpansion(phil, false)
	infBar, ok := propChart.Bar(ont("influencedBy"))
	if !ok {
		t.Fatal("influencedBy missing")
	}
	chart, err := e.Expand(infBar.Bar, ObjectExpansion)
	if err != nil {
		t.Fatal(err)
	}
	// Objects: socrates (untyped), plato (Philosopher+Person+Agent+Thing),
	// newton+euler (Scientist+Person+Agent+Thing).
	byClass := map[string]int{}
	for _, b := range chart.Bars {
		byClass[b.LabelText] = b.Count
	}
	if byClass["Scientist"] != 2 {
		t.Errorf("Scientist bar = %d, want 2", byClass["Scientist"])
	}
	if byClass["Philosopher"] != 1 {
		t.Errorf("Philosopher bar = %d, want 1", byClass["Philosopher"])
	}
	if byClass["Person"] != 3 {
		t.Errorf("Person bar = %d, want 3", byClass["Person"])
	}
}

func TestObjectExpansionIncoming(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	propChart := e.propertyExpansion(phil, true)
	authorBar, ok := propChart.Bar(ont("author"))
	if !ok {
		t.Fatal("author missing")
	}
	chart, err := e.Expand(authorBar.Bar, IncomingObjectExpansion)
	if err != nil {
		t.Fatal(err)
	}
	// works are untyped: no bars.
	if len(chart.Bars) != 0 {
		t.Errorf("untyped incoming objects produced %d bars", len(chart.Bars))
	}
}

func TestExpandApplicability(t *testing.T) {
	e := testFixture(t)
	classBar := e.ClassBar(ont("Philosopher"))
	propChart := e.propertyExpansion(classBar, false)
	propBar, _ := propChart.Bar(ont("influencedBy"))

	if _, err := e.Expand(propBar.Bar, SubclassExpansion); err == nil {
		t.Error("subclass expansion on property bar should fail")
	}
	if _, err := e.Expand(propBar.Bar, PropertyExpansion); err == nil {
		t.Error("property expansion on property bar should fail")
	}
	if _, err := e.Expand(classBar, ObjectExpansion); err == nil {
		t.Error("object expansion on class bar should fail")
	}
	if _, err := e.Expand(classBar, FilterExpansion); err == nil {
		t.Error("filter is not chart-producing via Expand")
	}
}

// TestFilterByPropertyValue checks the single property = value filter
// that the former Explorer.FilterByPropertyValue ran, through
// Pane.FilterExpansion, the one filter path.
func TestFilterByPropertyValue(t *testing.T) {
	e := testFixture(t)
	phil := e.OpenPane(ont("Philosopher"))
	vienna := phil.FilterExpansion([]TableFilter{{Property: ont("birthPlace"), Equals: res("vienna")}})
	if vienna.Len() != 1 {
		t.Fatalf("philosophers born in vienna = %d, want 1", vienna.Len())
	}
	term := e.st.Dict().Term(vienna.Set()[0])
	if term != res("kant") {
		t.Errorf("filtered member = %v, want kant", term)
	}
	// The generated SPARQL must reproduce the same set.
	assertSPARQLSet(t, e, vienna)
}

func TestBarSPARQLReproducesSet(t *testing.T) {
	e := testFixture(t)
	// A multi-hop bar: Philosopher → influencedBy → objects of class
	// Scientist.
	phil := e.ClassBar(ont("Philosopher"))
	propChart := e.propertyExpansion(phil, false)
	infBar, _ := propChart.Bar(ont("influencedBy"))
	chart, err := e.Expand(infBar.Bar, ObjectExpansion)
	if err != nil {
		t.Fatal(err)
	}
	sciBar, ok := chart.Bar(ont("Scientist"))
	if !ok {
		t.Fatal("Scientist bar missing")
	}
	assertSPARQLSet(t, e, sciBar.Bar)
	// Also validate the intermediate bars.
	assertSPARQLSet(t, e, phil)
	assertSPARQLSet(t, e, infBar.Bar)
}

// assertSPARQLSet executes the bar's generated SPARQL and compares the
// result set with the materialized bar set.
func assertSPARQLSet(t *testing.T, e *Explorer, b *Bar) {
	t.Helper()
	src := b.SPARQL()
	if src == "" {
		t.Fatal("empty SPARQL")
	}
	res, err := sparql.NewEngine(e.st).Query(context.Background(), src)
	if err != nil {
		t.Fatalf("generated SPARQL failed: %v\n%s", err, src)
	}
	if len(res.Vars) != 1 {
		t.Fatalf("generated SPARQL projects %d vars", len(res.Vars))
	}
	v := res.Vars[0]
	got := map[rdf.Term]struct{}{}
	for _, row := range res.Rows {
		got[row[v]] = struct{}{}
	}
	want := map[rdf.Term]struct{}{}
	for _, id := range b.Set() {
		want[e.st.Dict().Term(id)] = struct{}{}
	}
	if len(got) != len(want) {
		t.Fatalf("SPARQL set size %d != bar set size %d\n%s", len(got), len(want), src)
	}
	for term := range want {
		if _, ok := got[term]; !ok {
			t.Fatalf("SPARQL set missing %v\n%s", term, src)
		}
	}
}

// TestExpansionSetInvariantsRandom fuzzes the core invariants on random
// graphs: bar sets are subsets of their sources, counts match set sizes,
// and bars are sorted by decreasing count.
func TestExpansionSetInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		st := store.New(512)
		var ts []rdf.Triple
		ts = append(ts, rdf.Triple{S: rdf.OWLThingIRI, P: rdf.TypeIRI, O: rdf.OWLClassIRI})
		nClasses := 2 + r.Intn(4)
		for c := 0; c < nClasses; c++ {
			ts = append(ts, rdf.Triple{S: ont(fmt.Sprintf("C%d", c)), P: rdf.SubClassOfIRI, O: rdf.OWLThingIRI})
		}
		nInst := 20 + r.Intn(50)
		for i := 0; i < nInst; i++ {
			inst := res(fmt.Sprintf("i%d", i))
			c := ont(fmt.Sprintf("C%d", r.Intn(nClasses)))
			ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: c})
			ts = append(ts, rdf.Triple{S: inst, P: rdf.TypeIRI, O: rdf.OWLThingIRI})
			for j := 0; j < r.Intn(4); j++ {
				ts = append(ts, rdf.Triple{
					S: inst,
					P: ont(fmt.Sprintf("p%d", r.Intn(3))),
					O: res(fmt.Sprintf("i%d", r.Intn(nInst))),
				})
			}
		}
		st.Load(ts)
		e := NewExplorer(st)
		root := e.RootBar()

		subChart := e.subclassExpansion(root)
		assertChartInvariants(t, subChart, root)

		propChart := e.propertyExpansion(root, false)
		assertChartInvariants(t, propChart, root)

		for _, pb := range propChart.Bars {
			objChart, err := e.Expand(pb.Bar, ObjectExpansion)
			if err != nil {
				t.Fatal(err)
			}
			// Object expansion bars contain objects, not members of S;
			// only check sortedness and count consistency.
			for _, b := range objChart.Bars {
				if b.Count != len(b.Bar.Set()) {
					t.Fatalf("object bar count %d != set %d", b.Count, len(b.Bar.Set()))
				}
			}
			assertSorted(t, objChart)
		}
	}
}

func assertChartInvariants(t *testing.T, c *Chart, source *Bar) {
	t.Helper()
	srcSet := idSet(source.Set())
	for _, b := range c.Bars {
		if b.Count != len(b.Bar.Set()) {
			t.Fatalf("count %d != |set| %d", b.Count, len(b.Bar.Set()))
		}
		for _, id := range b.Bar.Set() {
			if _, in := srcSet[id]; !in {
				t.Fatalf("bar %s member outside source set", b.LabelText)
			}
		}
	}
	assertSorted(t, c)
}

func assertSorted(t *testing.T, c *Chart) {
	t.Helper()
	if !sort.SliceIsSorted(c.Bars, func(i, j int) bool {
		if c.Bars[i].Count != c.Bars[j].Count {
			return c.Bars[i].Count > c.Bars[j].Count
		}
		return c.Bars[i].LabelText < c.Bars[j].LabelText
	}) {
		t.Fatal("bars not sorted by decreasing count")
	}
}

func TestChartThresholdAndTop(t *testing.T) {
	e := testFixture(t)
	phil := e.ClassBar(ont("Philosopher"))
	chart := e.propertyExpansion(phil, false)
	full := len(chart.Bars)
	cut := chart.Threshold(0.5)
	if len(cut.Bars) >= full {
		t.Errorf("threshold did not remove bars: %d -> %d", full, len(cut.Bars))
	}
	for _, b := range cut.Bars {
		if b.Coverage < 0.5 {
			t.Errorf("bar %s below threshold survived", b.LabelText)
		}
	}
	top := chart.Top(2)
	if len(top.Bars) != 2 {
		t.Errorf("Top(2) = %d bars", len(top.Bars))
	}
	if got := chart.Top(100); len(got.Bars) != full {
		t.Errorf("Top(100) = %d bars, want %d", len(got.Bars), full)
	}
}

func TestVirtualRootForRootlessData(t *testing.T) {
	st := store.New(32)
	st.Load([]rdf.Triple{
		{S: ont("Amenity"), P: rdf.TypeIRI, O: rdf.RDFSClassIRI},
		{S: ont("Highway"), P: rdf.TypeIRI, O: rdf.RDFSClassIRI},
		{S: res("n1"), P: rdf.TypeIRI, O: ont("Amenity")},
		{S: res("n2"), P: rdf.TypeIRI, O: ont("Highway")},
		{S: res("n3"), P: rdf.TypeIRI, O: ont("Highway")},
	})
	e := NewExplorer(st)
	root := e.RootBar()
	if !root.Label.IsZero() {
		t.Errorf("virtual root should have zero label, got %v", root.Label)
	}
	if root.Len() != 3 {
		t.Errorf("virtual root |S| = %d, want 3", root.Len())
	}
	chart := e.subclassExpansion(root)
	if len(chart.Bars) != 2 {
		t.Fatalf("rootless chart bars = %d, want 2", len(chart.Bars))
	}
	if chart.Bars[0].LabelText != "Highway" || chart.Bars[0].Count != 2 {
		t.Errorf("top bar: %s=%d", chart.Bars[0].LabelText, chart.Bars[0].Count)
	}
}

func dirOf(incoming bool) decomposer.Direction {
	if incoming {
		return decomposer.Incoming
	}
	return decomposer.Outgoing
}
