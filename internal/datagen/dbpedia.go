// Package datagen generates deterministic synthetic datasets whose
// statistical shape matches the figures the paper quotes about its
// evaluation datasets. The real DBpedia/YAGO/LinkedGeoData dumps are not
// available offline, and eLinda's algorithms depend only on the class
// hierarchy, the type distribution and the property-coverage distribution
// — exactly the quantities these generators control.
//
// Reproduced facts:
//
//   - DBpedia's ontology "reports on 49 top-level classes, yet almost half
//     of the classes (22) do not have instances at all" (Section 1).
//   - Agent is "the second largest DBpedia class, with more than 2 million
//     instances, 5 direct subclasses, and 277 subclasses in total"
//     (Section 3.2; instance counts are scaled by Config.Persons).
//   - "in DBpedia there are nearly 40,000 instances of type Politician,
//     that feature 1,482 different properties altogether. ... only 38
//     properties ... cross the default coverage threshold of 20%"
//     (Section 3.3).
//   - "For type Philosopher, 9 ingoing properties that cross the 20%
//     coverage threshold are shown" (Section 3.3).
//   - The exploration path owl:Thing → Agent → Person → Philosopher, the
//     influencedBy connection to Scientist (Section 3.4), and the
//     erroneous "people born in resources of type food" (Section 5).
package datagen

import (
	"fmt"
	"math/rand"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// Namespaces of the synthetic DBpedia-like dataset.
const (
	// OntNS holds classes and properties.
	OntNS = "http://elinda.example/ontology/"
	// ResNS holds instances.
	ResNS = "http://elinda.example/resource/"
)

// Ont returns an ontology IRI term.
func Ont(local string) rdf.Term { return rdf.NewIRI(OntNS + local) }

// Res returns a resource IRI term.
func Res(local string) rdf.Term { return rdf.NewIRI(ResNS + local) }

// Config controls the DBpedia-like generator. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	// Seed drives all pseudo-random choices; equal seeds give identical
	// datasets.
	Seed int64
	// Persons is the number of instances in the Person subtree. Every
	// other population scales from it (Agent ≈ 1.36 × Persons, etc.).
	Persons int
	// PoliticianProps is the number of politician-specific property types.
	// The paper's full-scale figure is 1472 (which with the 10 shared
	// person properties yields the quoted 1,482 distinct properties);
	// tests use a smaller default for speed.
	PoliticianProps int
	// ErrorRate is the fraction of person birthPlace triples that
	// erroneously point at Food resources (the Section 5 data-quality
	// scenario).
	ErrorRate float64
}

// DefaultConfig returns the test-scale configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, Persons: 2000, PoliticianProps: 120, ErrorRate: 0.02}
}

// PaperScaleConfig returns a configuration matching the paper's full
// figures where feasible (1,482 distinct Politician properties); instance
// counts remain scaled by Persons.
func PaperScaleConfig(persons int) Config {
	return Config{Seed: 1, Persons: persons, PoliticianProps: 1472, ErrorRate: 0.02}
}

// Facts records the ground-truth numbers the generator promises, so tests
// and benchmarks can assert the paper's figures.
type Facts struct {
	// TopLevelClasses is the number of direct subclasses of owl:Thing (49).
	TopLevelClasses int
	// EmptyTopLevelClasses is how many of those have no instances (22).
	EmptyTopLevelClasses int
	// AgentDirectSubclasses is 5.
	AgentDirectSubclasses int
	// AgentTotalSubclasses is 277.
	AgentTotalSubclasses int
	// PoliticianDistinctProperties counts all distinct outgoing properties
	// on Politician instances (paper: 1,482 at full scale).
	PoliticianDistinctProperties int
	// PoliticianPropsAboveThreshold is 38 at the 20% default threshold.
	PoliticianPropsAboveThreshold int
	// PhilosopherIngoingAboveThreshold is 9 at the 20% threshold.
	PhilosopherIngoingAboveThreshold int
	// Philosophers, Politicians, Scientists record instance counts.
	Philosophers, Politicians, Scientists int
	// Triples is the total triple count.
	Triples int
}

// Dataset is a generated dataset: the triples plus the facts they satisfy.
type Dataset struct {
	Triples []rdf.Triple
	Facts   Facts
}

// NewStore loads the dataset into a fresh store.
func (d *Dataset) NewStore() (*store.Store, error) {
	st := store.New(len(d.Triples))
	if _, err := st.Load(d.Triples); err != nil {
		return nil, fmt.Errorf("datagen: loading generated data: %w", err)
	}
	return st, nil
}

// populatedTopClasses are the 27 top-level classes that receive instances
// (27 + 22 empty = 49, matching the paper).
var populatedTopClasses = []string{
	"Agent", "Place", "Work", "Event", "Species", "Food", "TimePeriod",
	"Activity", "AnatomicalStructure", "Award", "Biomolecule",
	"ChemicalSubstance", "Colour", "Currency", "Device", "Disease",
	"EthnicGroup", "Holiday", "Language", "MeanOfTransportation", "Media",
	"Name", "PersonFunction", "SportsSeason", "TopicalConcept",
	"UnitOfWork", "CareerStation",
}

// emptyTopClassCount is the number of declared-but-uninstantiated
// top-level classes.
const emptyTopClassCount = 22

// agentDirectSubclasses are Agent's 5 direct subclasses.
var agentDirectSubclasses = []string{"Person", "Organisation", "Deity", "Family", "Robot"}

// personSubclasses are the named professions under Person.
var personSubclasses = []string{
	"Philosopher", "Politician", "Scientist", "Writer", "Artist", "Athlete",
	"Cleric", "Journalist", "Judge", "Lawyer", "Engineer", "Architect",
	"Astronaut", "Chef", "Economist", "Historian", "Monarch", "Musician",
	"Painter", "Presenter", "Royalty", "Noble", "MilitaryPerson", "Model",
}

// organisationSubclasses are the named kinds under Organisation.
var organisationSubclasses = []string{
	"Company", "University", "School", "Band", "Library", "Museum",
	"PoliticalParty", "SportsTeam", "Airline", "Publisher",
}

// politicianSubclasses sit one level deeper (under Politician).
var politicianSubclasses = []string{
	"President", "Senator", "Mayor", "Governor", "PrimeMinister", "Congressman",
}

// philosopherIngoingProps are the 9 incoming property types that cross the
// 20% coverage threshold on Philosopher (Section 3.3 reports exactly 9).
var philosopherIngoingProps = []string{
	"author", "influenced", "doctoralAdvisor", "doctoralStudent",
	"academicAdvisor", "notableStudent", "philosophicalSchool", "citedBy",
	"successor",
}

// philosopherIngoingBelow are additional incoming types kept under the
// threshold, so the threshold filter has something to hide.
var philosopherIngoingBelow = []string{"translator", "dedicatee", "eponym"}

// commonPersonProps lists the shared person properties with their
// deterministic coverages. Together with rdf:type and rdfs:label (always
// 100%), exactly 8 of the shared properties sit at or above 20%.
var commonPersonProps = []struct {
	name string
	cov  float64
}{
	{"name", 0.95},
	{"birthDate", 0.80},
	{"birthPlace", 0.70},
	{"occupation", 0.50},
	{"nationality", 0.45},
	{"deathPlace", 0.35},
	{"spouse", 0.15},
	{"child", 0.10},
}

// politicianPropsAboveTarget is how many politician-specific properties
// get coverage >= 20%. 30 specific + 8 common (rdf:type, rdfs:label, name,
// birthDate, birthPlace, occupation, nationality, deathPlace) = the
// paper's 38.
const politicianPropsAboveTarget = 30

// Generate builds the synthetic DBpedia-like dataset.
func Generate(cfg Config) *Dataset {
	if cfg.Persons <= 0 {
		cfg.Persons = DefaultConfig().Persons
	}
	if cfg.PoliticianProps < politicianPropsAboveTarget+1 {
		cfg.PoliticianProps = politicianPropsAboveTarget + 1
	}
	g := &generator{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	g.buildOntology()
	g.buildInstances()
	g.buildPersonProperties()
	g.buildPoliticianProperties()
	g.buildPhilosopherProperties()
	g.buildAuxiliary()

	facts := Facts{
		TopLevelClasses:                  len(populatedTopClasses) + emptyTopClassCount,
		EmptyTopLevelClasses:             emptyTopClassCount,
		AgentDirectSubclasses:            len(agentDirectSubclasses),
		AgentTotalSubclasses:             277,
		PoliticianDistinctProperties:     cfg.PoliticianProps + len(commonPersonProps) + 2, // + rdf:type, rdfs:label
		PoliticianPropsAboveThreshold:    38,
		PhilosopherIngoingAboveThreshold: len(philosopherIngoingProps),
		Philosophers:                     g.count["Philosopher"],
		Politicians:                      g.count["Politician"],
		Scientists:                       g.count["Scientist"],
		Triples:                          len(g.triples),
	}
	return &Dataset{Triples: g.triples, Facts: facts}
}

type generator struct {
	cfg     Config
	rng     *rand.Rand
	triples []rdf.Triple

	// parentsOf maps each class to its superclass chain up to owl:Thing.
	parentsOf map[string][]string
	// instances maps each class name to its directly-typed instances.
	instances map[string][]rdf.Term
	count     map[string]int
	places    []rdf.Term
	foods     []rdf.Term
}

func (g *generator) add(s, p, o rdf.Term) {
	g.triples = append(g.triples, rdf.Triple{S: s, P: p, O: o})
}

func (g *generator) declClass(name string, parent rdf.Term) {
	c := Ont(name)
	g.add(c, rdf.TypeIRI, rdf.OWLClassIRI)
	g.add(c, rdf.SubClassOfIRI, parent)
	g.add(c, rdf.LabelIRI, rdf.NewLangLiteral(name, "en"))
}

// buildOntology creates the class DAG: 49 top classes (22 empty), Agent
// with 5 direct and 277 total subclasses.
func (g *generator) buildOntology() {
	g.parentsOf = map[string][]string{}
	g.add(rdf.OWLThingIRI, rdf.TypeIRI, rdf.OWLClassIRI)
	g.add(rdf.OWLThingIRI, rdf.LabelIRI, rdf.NewLangLiteral("Thing", "en"))

	for _, name := range populatedTopClasses {
		g.declClass(name, rdf.OWLThingIRI)
		g.parentsOf[name] = nil
	}
	for i := 1; i <= emptyTopClassCount; i++ {
		name := fmt.Sprintf("EmptyClass%02d", i)
		g.declClass(name, rdf.OWLThingIRI)
		g.parentsOf[name] = nil
	}

	link := func(child, parent string) {
		g.declClass(child, Ont(parent))
		g.parentsOf[child] = append([]string{parent}, g.parentsOf[parent]...)
	}

	agentTotal := 0
	for _, c := range agentDirectSubclasses {
		link(c, "Agent")
		agentTotal++
	}
	for _, c := range personSubclasses {
		link(c, "Person")
		agentTotal++
	}
	for _, c := range organisationSubclasses {
		link(c, "Organisation")
		agentTotal++
	}
	for _, c := range politicianSubclasses {
		link(c, "Politician")
		agentTotal++
	}
	// Filler professions under Person until Agent's closure reaches 277.
	for i := 1; agentTotal < 277; i++ {
		link(fmt.Sprintf("ProfessionFiller%03d", i), "Person")
		agentTotal++
	}
	// A small subtree under Place and Food for realism.
	for _, c := range []string{"City", "Country", "Village", "Mountain", "River"} {
		link(c, "Place")
	}
	for _, c := range []string{"Cheese", "Pastry", "Beverage"} {
		link(c, "Food")
	}
	for _, c := range []string{"Book", "Album", "Film"} {
		link(c, "Work")
	}
}

// typeInstance asserts rdf:type for the class and its full ancestor chain
// including owl:Thing, mirroring DBpedia's materialized typing.
func (g *generator) typeInstance(inst rdf.Term, class string) {
	g.add(inst, rdf.TypeIRI, Ont(class))
	for _, anc := range g.parentsOf[class] {
		g.add(inst, rdf.TypeIRI, Ont(anc))
	}
	g.add(inst, rdf.TypeIRI, rdf.OWLThingIRI)
	g.instances[class] = append(g.instances[class], inst)
	g.count[class]++
}

// classShares maps each populated class to its instance count as a share
// of Config.Persons. Shares within Person must sum to <= 1; the remainder
// becomes plain Persons.
var personShares = []struct {
	class string
	share float64
}{
	{"Philosopher", 0.06},
	{"Politician", 0.20},
	{"Scientist", 0.15},
	{"Writer", 0.10},
	{"Artist", 0.08},
	{"Athlete", 0.12},
}

func (g *generator) buildInstances() {
	g.instances = map[string][]rdf.Term{}
	g.count = map[string]int{}
	n := g.cfg.Persons

	mk := func(class string, count int) {
		for i := 0; i < count; i++ {
			g.typeInstance(Res(fmt.Sprintf("%s_%d", class, i)), class)
		}
	}

	used := 0
	for _, ps := range personShares {
		c := int(float64(n) * ps.share)
		if c < 5 {
			c = 5
		}
		mk(ps.class, c)
		used += c
	}
	if rest := n - used; rest > 0 {
		mk("Person", rest)
	}

	// Other Agent branches.
	mk("Organisation", n*15/100)
	mk("Company", n*8/100)
	mk("University", n*4/100)
	mk("Deity", 5+n/500)
	mk("Family", 5+n/500)
	// Robot stays empty within Agent: realistic ontologies have hollow leaves.

	// Non-agent top classes.
	mk("Place", n*40/100)
	mk("City", n*10/100)
	mk("Country", 30)
	mk("Food", 10+n*3/100)
	mk("Cheese", 5+n/100)
	mk("Work", n*30/100)
	mk("Book", n*12/100)
	mk("Event", n*5/100)
	mk("Species", n*6/100)
	// The remaining populated top classes receive a thin population so
	// they count as non-empty.
	for _, top := range populatedTopClasses {
		if g.count[top] == 0 {
			mk(top, 3+g.rng.Intn(5))
		}
	}

	g.places = append(append([]rdf.Term{}, g.instances["Place"]...), g.instances["City"]...)
	g.foods = append(append([]rdf.Term{}, g.instances["Food"]...), g.instances["Cheese"]...)
}

// personTreeInstances returns every instance in the Person subtree.
func (g *generator) personTreeInstances() []rdf.Term {
	var out []rdf.Term
	out = append(out, g.instances["Person"]...)
	for _, ps := range personShares {
		out = append(out, g.instances[ps.class]...)
	}
	return out
}

// buildPersonProperties attaches the shared person properties with their
// deterministic coverages. Coverage is applied per class — each property
// covers the first ceil(cov*n) members of every class's instance list —
// so the coverage observed on any single pane (Politician, Philosopher,
// plain Person) is exactly the configured fraction.
func (g *generator) buildPersonProperties() {
	classLists := [][]rdf.Term{g.instances["Person"]}
	for _, ps := range personShares {
		classLists = append(classLists, g.instances[ps.class])
	}
	for _, pp := range commonPersonProps {
		prop := Ont(pp.name)
		for _, list := range classLists {
			limit := coverageLimit(len(list), pp.cov)
			for i := 0; i < limit; i++ {
				inst := list[i]
				switch pp.name {
				case "birthPlace":
					g.add(inst, prop, g.pickBirthPlace())
				case "deathPlace":
					g.add(inst, prop, g.places[g.rng.Intn(len(g.places))])
				case "spouse", "child":
					// Links stay inside plain Persons so they never count as
					// ingoing properties of Philosopher (keeps T3 exact).
					plain := g.instances["Person"]
					if len(plain) > 0 {
						g.add(inst, prop, plain[g.rng.Intn(len(plain))])
					}
				case "birthDate":
					g.add(inst, prop, rdf.NewTypedLiteral(
						fmt.Sprintf("%04d-01-01", 1000+g.rng.Intn(1000)), rdf.XSDDate))
				case "name":
					g.add(inst, prop, rdf.NewLiteral(inst.LocalName()))
				default:
					g.add(inst, prop, rdf.NewLiteral(fmt.Sprintf("%s-%s", pp.name, inst.LocalName())))
				}
			}
		}
	}
	// Labels for every person.
	for _, inst := range g.personTreeInstances() {
		g.add(inst, rdf.LabelIRI, rdf.NewLangLiteral(inst.LocalName(), "en"))
	}
}

// pickBirthPlace returns a Place, or (at ErrorRate) a Food resource — the
// deliberately erroneous data of the demonstration's third scenario.
func (g *generator) pickBirthPlace() rdf.Term {
	if g.rng.Float64() < g.cfg.ErrorRate && len(g.foods) > 0 {
		return g.foods[g.rng.Intn(len(g.foods))]
	}
	return g.places[g.rng.Intn(len(g.places))]
}

// buildPoliticianProperties creates the politician-specific property pool:
// exactly politicianPropsAboveTarget of them at coverage >= 20%, the rest
// below, so the total above-threshold count (with the 8 common ones) is
// the paper's 38.
func (g *generator) buildPoliticianProperties() {
	pols := g.instances["Politician"]
	n := len(pols)
	total := g.cfg.PoliticianProps
	for i := 0; i < total; i++ {
		var cov float64
		if i < politicianPropsAboveTarget {
			// 0.90 down to 0.22, strictly above threshold.
			cov = 0.90 - 0.68*float64(i)/float64(politicianPropsAboveTarget)
		} else {
			// 0.19 down to near zero, strictly below threshold; at least
			// one instance each so the property exists in the data.
			frac := float64(i-politicianPropsAboveTarget) / float64(total-politicianPropsAboveTarget)
			cov = 0.19 * (1 - frac)
		}
		limit := coverageLimit(n, cov)
		if limit == 0 {
			limit = 1
		}
		prop := Ont(fmt.Sprintf("polProp%04d", i))
		for j := 0; j < limit && j < n; j++ {
			g.add(pols[j], prop, rdf.NewLiteral(fmt.Sprintf("v%d", j)))
		}
	}
}

// buildPhilosopherProperties creates influencedBy links (Section 3.4) and
// the 9 above-threshold ingoing properties (Section 3.3).
func (g *generator) buildPhilosopherProperties() {
	phils := g.instances["Philosopher"]
	n := len(phils)
	// Outgoing influencedBy: 60% coverage; targets are Scientists (45%),
	// Writers (30%) and a thin band of Philosophers (first 15% only, so
	// the ingoing coverage of influencedBy on Philosopher stays < 20%).
	prop := Ont("influencedBy")
	limit := coverageLimit(n, 0.60)
	scientists := g.instances["Scientist"]
	writers := g.instances["Writer"]
	for i := 0; i < limit; i++ {
		r := g.rng.Float64()
		var target rdf.Term
		switch {
		case r < 0.45 && len(scientists) > 0:
			target = scientists[g.rng.Intn(len(scientists))]
		case r < 0.75 && len(writers) > 0:
			target = writers[g.rng.Intn(len(writers))]
		default:
			target = phils[g.rng.Intn(max(1, n*15/100))]
		}
		g.add(phils[i], prop, target)
	}
	// Other philosopher-specific outgoing properties.
	for _, spec := range []struct {
		name string
		cov  float64
	}{{"mainInterest", 0.5}, {"era", 0.4}, {"notableIdea", 0.3}} {
		p := Ont(spec.name)
		for i := 0; i < coverageLimit(n, spec.cov); i++ {
			g.add(phils[i], p, rdf.NewLiteral(spec.name+"-"+fmt.Sprint(i%7)))
		}
	}
	// The 9 deterministic above-threshold ingoing properties: auxiliary
	// resources point at the first ceil(cov*n) philosophers.
	for k, name := range philosopherIngoingProps {
		p := Ont(name)
		cov := 0.85 - 0.07*float64(k) // 0.85 down to 0.29, all >= 20%
		for i := 0; i < coverageLimit(n, cov); i++ {
			src := Res(fmt.Sprintf("aux_%s_%d", name, i))
			g.add(src, p, phils[i])
			if name == "author" {
				g.typeInstance(src, "Book")
			}
		}
	}
	// Below-threshold ingoing properties.
	for k, name := range philosopherIngoingBelow {
		p := Ont(name)
		cov := 0.15 - 0.04*float64(k)
		for i := 0; i < coverageLimit(n, cov); i++ {
			g.add(Res(fmt.Sprintf("aux_%s_%d", name, i)), p, phils[i])
		}
	}
}

// buildAuxiliary fills in labels for places/foods and thin properties on
// the non-person populations so every pane has something to show.
func (g *generator) buildAuxiliary() {
	for _, set := range []string{"Place", "City", "Food", "Cheese", "Work", "Book", "Organisation", "Company"} {
		insts := g.instances[set]
		for i, inst := range insts {
			if i%2 == 0 {
				g.add(inst, rdf.LabelIRI, rdf.NewLangLiteral(inst.LocalName(), "en"))
			}
		}
	}
	// Works get authors among writers.
	writers := g.instances["Writer"]
	for i, w := range g.instances["Book"] {
		if len(writers) > 0 && i%3 != 0 {
			g.add(w, Ont("writtenBy"), writers[g.rng.Intn(len(writers))])
		}
	}
	// Cities are located in countries.
	countries := g.instances["Country"]
	for i, c := range g.instances["City"] {
		if len(countries) > 0 && i%2 == 0 {
			g.add(c, Ont("country"), countries[g.rng.Intn(len(countries))])
		}
	}
}

// coverageLimit converts a coverage fraction to an instance-prefix length.
func coverageLimit(n int, cov float64) int {
	if cov <= 0 || n == 0 {
		return 0
	}
	limit := int(cov*float64(n) + 0.999999)
	if limit > n {
		limit = n
	}
	return limit
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
