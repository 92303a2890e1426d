package datagen

import (
	"reflect"
	"testing"

	"elinda/internal/decomposer"
	"elinda/internal/ontology"
	"elinda/internal/rdf"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 3, Persons: 300, PoliticianProps: 60, ErrorRate: 0.05})
	b := Generate(Config{Seed: 3, Persons: 300, PoliticianProps: 60, ErrorRate: 0.05})
	if !reflect.DeepEqual(a.Triples, b.Triples) {
		t.Fatal("equal seeds must give identical datasets")
	}
	c := Generate(Config{Seed: 4, Persons: 300, PoliticianProps: 60, ErrorRate: 0.05})
	if reflect.DeepEqual(a.Triples, c.Triples) {
		t.Fatal("different seeds gave identical datasets")
	}
}

func TestGenerateValidTriples(t *testing.T) {
	ds := Generate(DefaultConfig())
	for i, tr := range ds.Triples {
		if err := tr.Validate(); err != nil {
			t.Fatalf("triple %d invalid: %v", i, err)
		}
	}
	if ds.Facts.Triples != len(ds.Triples) {
		t.Errorf("Facts.Triples = %d, len = %d", ds.Facts.Triples, len(ds.Triples))
	}
}

// TestDBpediaShapeTopClasses is experiment T1: "49 top-level classes, yet
// almost half of the classes (22) do not have instances at all".
func TestDBpediaShapeTopClasses(t *testing.T) {
	ds := Generate(DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	h := ontology.Build(st)
	root := h.Root()
	if root == rdf.NoID {
		t.Fatal("no root detected")
	}
	if st.Dict().Term(root) != rdf.OWLThingIRI {
		t.Errorf("root = %v", st.Dict().Term(root))
	}
	tops := h.DirectSubclasses(root)
	if len(tops) != 49 {
		t.Errorf("top-level classes = %d, want 49", len(tops))
	}
	empty := h.EmptyClasses(true)
	if len(empty) != 22 {
		t.Errorf("empty top-level classes = %d, want 22", len(empty))
	}
}

// TestAgentShape: "Agent, the second largest DBpedia class, with ... 5
// direct subclasses, and 277 subclasses in total".
func TestAgentShape(t *testing.T) {
	ds := Generate(DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	h := ontology.Build(st)
	agent, ok := st.Dict().Lookup(Ont("Agent"))
	if !ok {
		t.Fatal("Agent missing")
	}
	direct, total := h.SubclassCounts(agent)
	if direct != 5 {
		t.Errorf("Agent direct subclasses = %d, want 5", direct)
	}
	if total != 277 {
		t.Errorf("Agent total subclasses = %d, want 277", total)
	}
	// Agent should be the largest top class by deep instances except
	// owl:Thing itself (the paper says second largest overall after Thing).
	root := h.Root()
	agentCount := h.DeepInstanceCount(agent)
	for _, top := range h.DirectSubclasses(root) {
		if top == agent {
			continue
		}
		if c := h.DeepInstanceCount(top); c > agentCount {
			t.Errorf("class %s (%d) larger than Agent (%d)", st.Label(top), c, agentCount)
		}
	}
}

// TestPoliticianCoverage is experiment T2: 38 properties at or above the
// 20% coverage threshold, and the configured total distinct property
// count.
func TestPoliticianCoverage(t *testing.T) {
	cfg := DefaultConfig()
	ds := Generate(cfg)
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	d := decomposer.New(st)
	pol, ok := st.Dict().Lookup(Ont("Politician"))
	if !ok {
		t.Fatal("Politician missing")
	}
	stats := d.PropertyStats(pol, decomposer.Outgoing)
	n := ds.Facts.Politicians
	above := 0
	for _, s := range stats {
		if float64(s.Subjects) >= 0.2*float64(n) {
			above++
		}
	}
	if above != 38 {
		t.Errorf("properties above 20%% = %d, want 38", above)
	}
	if len(stats) != ds.Facts.PoliticianDistinctProperties {
		t.Errorf("distinct properties = %d, facts say %d", len(stats), ds.Facts.PoliticianDistinctProperties)
	}
}

// TestPoliticianCoveragePaperScale checks the 1,482 figure with the
// full-scale property pool.
func TestPoliticianCoveragePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation in -short mode")
	}
	ds := Generate(PaperScaleConfig(1000))
	if ds.Facts.PoliticianDistinctProperties != 1482 {
		t.Errorf("distinct properties = %d, want 1482", ds.Facts.PoliticianDistinctProperties)
	}
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	d := decomposer.New(st)
	pol, _ := st.Dict().Lookup(Ont("Politician"))
	stats := d.PropertyStats(pol, decomposer.Outgoing)
	if len(stats) != 1482 {
		t.Errorf("measured distinct properties = %d, want 1482", len(stats))
	}
}

// TestPhilosopherIngoing is experiment T3: exactly 9 ingoing properties
// cross the 20% threshold on Philosopher.
func TestPhilosopherIngoing(t *testing.T) {
	ds := Generate(DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	d := decomposer.New(st)
	phil, ok := st.Dict().Lookup(Ont("Philosopher"))
	if !ok {
		t.Fatal("Philosopher missing")
	}
	stats := d.PropertyStats(phil, decomposer.Incoming)
	n := ds.Facts.Philosophers
	var above []string
	for _, s := range stats {
		if float64(s.Subjects) >= 0.2*float64(n) {
			above = append(above, st.Dict().Term(s.Property).LocalName())
		}
	}
	if len(above) != 9 {
		t.Errorf("ingoing above threshold = %d (%v), want 9", len(above), above)
	}
}

// TestErrorScenarioPresent: some persons are born in Food resources.
func TestErrorScenarioPresent(t *testing.T) {
	ds := Generate(DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	birthPlace, ok := st.Dict().LookupIRI(OntNS + "birthPlace")
	if !ok {
		t.Fatal("birthPlace missing")
	}
	foodID, ok := st.Dict().Lookup(Ont("Food"))
	if !ok {
		t.Fatal("Food missing")
	}
	foods := map[rdf.ID]struct{}{}
	for _, f := range st.Snapshot().SubjectsOfType(foodID) {
		foods[f] = struct{}{}
	}
	errs := 0
	st.Snapshot().Match(rdf.NoID, birthPlace, rdf.NoID, func(e rdf.EncodedTriple) bool {
		if _, isFood := foods[e.O]; isFood {
			errs++
		}
		return true
	})
	if errs == 0 {
		t.Error("no erroneous food birthplaces generated")
	}
}

// TestInfluencedByConnectsToScientists: the Section 3.4 scenario requires
// a Scientist bar in the influencedBy object expansion.
func TestInfluencedByConnectsToScientists(t *testing.T) {
	ds := Generate(DefaultConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	infBy, ok := st.Dict().LookupIRI(OntNS + "influencedBy")
	if !ok {
		t.Fatal("influencedBy missing")
	}
	sciID, _ := st.Dict().Lookup(Ont("Scientist"))
	scientists := map[rdf.ID]struct{}{}
	for _, s := range st.Snapshot().SubjectsOfType(sciID) {
		scientists[s] = struct{}{}
	}
	hits := 0
	st.Snapshot().Match(rdf.NoID, infBy, rdf.NoID, func(e rdf.EncodedTriple) bool {
		if _, isSci := scientists[e.O]; isSci {
			hits++
		}
		return true
	})
	if hits == 0 {
		t.Error("influencedBy never targets scientists")
	}
}

func TestPersonTypedAsAncestors(t *testing.T) {
	ds := Generate(Config{Seed: 1, Persons: 100, PoliticianProps: 40})
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	// Every Philosopher must also be typed Person, Agent and owl:Thing.
	philID, _ := st.Dict().Lookup(Ont("Philosopher"))
	persID, _ := st.Dict().Lookup(Ont("Person"))
	agentID, _ := st.Dict().Lookup(Ont("Agent"))
	thingID, _ := st.Dict().Lookup(rdf.OWLThingIRI)
	typeID := st.TypeID()
	for _, p := range st.Snapshot().SubjectsOfType(philID) {
		for _, anc := range []rdf.ID{persID, agentID, thingID} {
			if st.Snapshot().CountMatch(p, typeID, anc) != 1 {
				t.Fatalf("philosopher %v missing ancestor type %v",
					st.Dict().Term(p), st.Dict().Term(anc))
			}
		}
	}
}

func TestGenerateLGDRootless(t *testing.T) {
	ds := GenerateLGD(DefaultLGDConfig())
	st, err := ds.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	h := ontology.Build(st)
	if h.Root() != rdf.NoID {
		t.Errorf("LGD dataset should have no root, got %v", st.Dict().Term(h.Root()))
	}
	tops := h.TopLevelClasses()
	if len(tops) != 5 {
		t.Errorf("LGD top classes = %d, want 5", len(tops))
	}
	// All nodes typed into leaves and tops.
	cafe, ok := st.Dict().Lookup(LGD("Cafe"))
	if !ok {
		t.Fatal("Cafe missing")
	}
	if len(st.Snapshot().SubjectsOfType(cafe)) == 0 {
		t.Error("no cafes generated")
	}
}

func TestGenerateLGDDeterministic(t *testing.T) {
	a := GenerateLGD(LGDConfig{Seed: 5, Nodes: 200})
	b := GenerateLGD(LGDConfig{Seed: 5, Nodes: 200})
	if !reflect.DeepEqual(a.Triples, b.Triples) {
		t.Error("LGD generation not deterministic")
	}
}

func TestConfigDefaults(t *testing.T) {
	ds := Generate(Config{Seed: 1})
	if ds.Facts.Triples == 0 {
		t.Error("zero-config generation produced nothing")
	}
	lgd := GenerateLGD(LGDConfig{Seed: 1})
	if lgd.Facts.Triples == 0 {
		t.Error("zero-config LGD generation produced nothing")
	}
}
