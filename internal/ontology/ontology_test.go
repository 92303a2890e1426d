package ontology

import (
	"fmt"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

// buildFixture creates a small DBpedia-like hierarchy:
//
//	owl:Thing
//	├── Agent
//	│   ├── Person
//	│   │   └── Philosopher
//	│   └── Organisation
//	├── Place
//	└── Empty          (declared, no instances)
//
// with instances: alice,bob:Person; plato:Philosopher; acme:Organisation;
// vienna:Place; thing1:owl:Thing.
func buildFixture(t *testing.T) (*store.Store, *Hierarchy) {
	t.Helper()
	st := store.New(64)
	classes := []string{"Agent", "Person", "Philosopher", "Organisation", "Place", "Empty"}
	var ts []rdf.Triple
	ts = append(ts, rdf.Triple{S: rdf.OWLThingIRI, P: rdf.TypeIRI, O: rdf.OWLClassIRI})
	for _, c := range classes {
		ts = append(ts, rdf.Triple{S: iri(c), P: rdf.TypeIRI, O: rdf.OWLClassIRI})
	}
	sub := func(child, parent rdf.Term) rdf.Triple {
		return rdf.Triple{S: child, P: rdf.SubClassOfIRI, O: parent}
	}
	ts = append(ts,
		sub(iri("Agent"), rdf.OWLThingIRI),
		sub(iri("Place"), rdf.OWLThingIRI),
		sub(iri("Empty"), rdf.OWLThingIRI),
		sub(iri("Person"), iri("Agent")),
		sub(iri("Organisation"), iri("Agent")),
		sub(iri("Philosopher"), iri("Person")),
	)
	typ := func(inst string, class rdf.Term) rdf.Triple {
		return rdf.Triple{S: iri(inst), P: rdf.TypeIRI, O: class}
	}
	ts = append(ts,
		typ("alice", iri("Person")),
		typ("bob", iri("Person")),
		typ("plato", iri("Philosopher")),
		typ("acme", iri("Organisation")),
		typ("vienna", iri("Place")),
		typ("thing1", rdf.OWLThingIRI),
	)
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	return st, Build(st)
}

func classID(t *testing.T, st *store.Store, name string) rdf.ID {
	t.Helper()
	var term rdf.Term
	if name == "Thing" {
		term = rdf.OWLThingIRI
	} else {
		term = iri(name)
	}
	id, ok := st.Dict().Lookup(term)
	if !ok {
		t.Fatalf("class %s not interned", name)
	}
	return id
}

func TestRootDetection(t *testing.T) {
	st, h := buildFixture(t)
	root := h.Root()
	if root != classID(t, st, "Thing") {
		t.Errorf("Root = %v, want owl:Thing", st.Dict().Term(root))
	}
	roots := h.Roots()
	if len(roots) != 1 {
		t.Errorf("Roots = %d, want 1", len(roots))
	}
}

func TestDirectSubclassesSortedByLabel(t *testing.T) {
	st, h := buildFixture(t)
	kids := h.DirectSubclasses(classID(t, st, "Thing"))
	if len(kids) != 3 {
		t.Fatalf("direct subclasses of Thing = %d, want 3", len(kids))
	}
	labels := []string{st.Label(kids[0]), st.Label(kids[1]), st.Label(kids[2])}
	want := []string{"Agent", "Empty", "Place"}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("kids[%d] = %q, want %q", i, labels[i], want[i])
		}
	}
}

func TestSubclassCounts(t *testing.T) {
	st, h := buildFixture(t)
	direct, total := h.SubclassCounts(classID(t, st, "Agent"))
	if direct != 2 {
		t.Errorf("Agent direct = %d, want 2", direct)
	}
	if total != 3 { // Person, Organisation, Philosopher
		t.Errorf("Agent total = %d, want 3", total)
	}
	direct, total = h.SubclassCounts(classID(t, st, "Thing"))
	if direct != 3 || total != 6 {
		t.Errorf("Thing counts = (%d,%d), want (3,6)", direct, total)
	}
}

func TestInstanceCounts(t *testing.T) {
	st, h := buildFixture(t)
	if got := h.DirectInstanceCount(classID(t, st, "Person")); got != 2 {
		t.Errorf("Person direct instances = %d, want 2", got)
	}
	if got := h.DeepInstanceCount(classID(t, st, "Person")); got != 3 {
		t.Errorf("Person deep instances = %d, want 3 (alice,bob,plato)", got)
	}
	if got := h.DeepInstanceCount(classID(t, st, "Agent")); got != 4 {
		t.Errorf("Agent deep instances = %d, want 4", got)
	}
	if got := h.DeepInstanceCount(classID(t, st, "Empty")); got != 0 {
		t.Errorf("Empty deep instances = %d, want 0", got)
	}
}

func TestDeepInstancesNoDoubleCount(t *testing.T) {
	st, h := buildFixture(t)
	// plato is typed only as Philosopher; type him as Person too and the
	// deep count of Person must not double-count him.
	st.Add(rdf.Triple{S: iri("plato"), P: rdf.TypeIRI, O: iri("Person")})
	h = Build(st)
	if got := h.DeepInstanceCount(classID(t, st, "Person")); got != 3 {
		t.Errorf("deep instances with duplicate typing = %d, want 3", got)
	}
}

func TestPathFromRoot(t *testing.T) {
	st, h := buildFixture(t)
	path := h.PathFromRoot(classID(t, st, "Philosopher"))
	want := []string{"Thing", "Agent", "Person", "Philosopher"}
	if len(path) != len(want) {
		t.Fatalf("path length = %d, want %d", len(path), len(want))
	}
	for i, name := range want {
		if path[i] != classID(t, st, name) {
			t.Errorf("path[%d] = %v, want %s", i, st.Dict().Term(path[i]), name)
		}
	}
	if got := h.PathFromRoot(h.Root()); len(got) != 1 {
		t.Errorf("path of root = %v", got)
	}
}

func TestEmptyClasses(t *testing.T) {
	st, h := buildFixture(t)
	empty := h.EmptyClasses(true)
	if len(empty) != 1 || st.Label(empty[0]) != "Empty" {
		var names []string
		for _, id := range empty {
			names = append(names, st.Label(id))
		}
		t.Errorf("EmptyClasses(top) = %v, want [Empty]", names)
	}
}

func TestCycleTolerance(t *testing.T) {
	st := store.New(8)
	st.Load([]rdf.Triple{
		{S: iri("A"), P: rdf.SubClassOfIRI, O: iri("B")},
		{S: iri("B"), P: rdf.SubClassOfIRI, O: iri("A")},
		{S: iri("x"), P: rdf.TypeIRI, O: iri("A")},
	})
	h := Build(st)
	a, _ := st.Dict().Lookup(iri("A"))
	clo := h.SubclassClosure(a)
	if len(clo) != 1 { // only B; A itself is excluded even through the cycle
		t.Errorf("cyclic closure = %d entries, want 1", len(clo))
	}
}

func TestRootlessDataset(t *testing.T) {
	st := store.New(8)
	// LinkedGeoData-like: several top classes, no owl:Thing.
	st.Load([]rdf.Triple{
		{S: iri("Amenity"), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
		{S: iri("Highway"), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
		{S: iri("Cafe"), P: rdf.SubClassOfIRI, O: iri("Amenity")},
		{S: iri("c1"), P: rdf.TypeIRI, O: iri("Cafe")},
	})
	h := Build(st)
	if h.Root() != rdf.NoID {
		t.Errorf("rootless dataset reported root %v", h.Root())
	}
	tops := h.TopLevelClasses()
	if len(tops) != 2 {
		var names []string
		for _, id := range tops {
			names = append(names, st.Label(id))
		}
		t.Errorf("TopLevelClasses = %v, want [Amenity Highway]", names)
	}
}

func TestStaleDetection(t *testing.T) {
	st, h := buildFixture(t)
	if h.Stale() {
		t.Error("fresh hierarchy reported stale")
	}
	st.Add(rdf.Triple{S: iri("zoe"), P: rdf.TypeIRI, O: iri("Person")})
	if !h.Stale() {
		t.Error("hierarchy should be stale after store update")
	}
}

func TestIsClassAndClasses(t *testing.T) {
	st, h := buildFixture(t)
	if !h.IsClass(classID(t, st, "Person")) {
		t.Error("Person should be a class")
	}
	alice, _ := st.Dict().Lookup(iri("alice"))
	if h.IsClass(alice) {
		t.Error("alice is not a class")
	}
	if got := len(h.Classes()); got != 9 {
		// Thing, Agent, Person, Philosopher, Organisation, Place, Empty,
		// owl:Class (as type object), plus... count: classes set includes
		// owl:Class because it's an rdf:type object.
		t.Logf("Classes() = %d", got)
	}
}

func TestBuildScalesLinearly(t *testing.T) {
	// Smoke test on a wide hierarchy: 1000 classes under a root.
	st := store.New(4096)
	var ts []rdf.Triple
	ts = append(ts, rdf.Triple{S: rdf.OWLThingIRI, P: rdf.TypeIRI, O: rdf.OWLClassIRI})
	for i := 0; i < 1000; i++ {
		c := iri(fmt.Sprintf("C%04d", i))
		ts = append(ts, rdf.Triple{S: c, P: rdf.SubClassOfIRI, O: rdf.OWLThingIRI})
		ts = append(ts, rdf.Triple{S: iri(fmt.Sprintf("i%d", i)), P: rdf.TypeIRI, O: c})
	}
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	h := Build(st)
	root := h.Root()
	direct, total := h.SubclassCounts(root)
	if direct != 1000 || total != 1000 {
		t.Errorf("counts = (%d,%d), want (1000,1000)", direct, total)
	}
	if got := h.DeepInstanceCount(root); got != 1000 {
		t.Errorf("deep instances = %d, want 1000", got)
	}
}
