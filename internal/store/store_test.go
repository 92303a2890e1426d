package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"elinda/internal/rdf"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func mkTriple(s, p, o string) rdf.Triple {
	return rdf.Triple{S: iri(s), P: iri(p), O: iri(o)}
}

func TestAddAndContains(t *testing.T) {
	st := New(4)
	added, err := st.Add(mkTriple("s", "p", "o"))
	if err != nil || !added {
		t.Fatalf("Add = (%v, %v)", added, err)
	}
	added, err = st.Add(mkTriple("s", "p", "o"))
	if err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v)", added, err)
	}
	if st.Len() != 1 {
		t.Errorf("Len = %d", st.Len())
	}
	if !st.Snapshot().ContainsTriple(mkTriple("s", "p", "o")) {
		t.Error("ContainsTriple should find added triple")
	}
	if st.Snapshot().ContainsTriple(mkTriple("s", "p", "other")) {
		t.Error("ContainsTriple found absent triple")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	st := New(1)
	bad := rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}
	if _, err := st.Add(bad); err == nil {
		t.Error("invalid triple accepted")
	}
	if _, err := st.Load([]rdf.Triple{mkTriple("a", "p", "b"), bad}); err == nil {
		t.Error("Load should fail on invalid triple")
	}
}

func TestGenerationAdvances(t *testing.T) {
	st := New(2)
	g0 := st.Generation()
	st.Add(mkTriple("s", "p", "o"))
	g1 := st.Generation()
	if g1 <= g0 {
		t.Errorf("generation did not advance: %d -> %d", g0, g1)
	}
	st.Add(mkTriple("s", "p", "o")) // duplicate: no change
	if st.Generation() != g1 {
		t.Error("duplicate add must not advance generation")
	}
}

func TestMatchAllPatterns(t *testing.T) {
	st := New(16)
	data := []rdf.Triple{
		mkTriple("s1", "p1", "o1"),
		mkTriple("s1", "p1", "o2"),
		mkTriple("s1", "p2", "o1"),
		mkTriple("s2", "p1", "o1"),
		mkTriple("s2", "p2", "o3"),
	}
	if _, err := st.Load(data); err != nil {
		t.Fatal(err)
	}
	d := st.Dict()
	id := func(s string) rdf.ID {
		v, ok := d.Lookup(iri(s))
		if !ok {
			t.Fatalf("missing %s", s)
		}
		return v
	}
	cases := []struct {
		s, p, o rdf.ID
		want    int
	}{
		{rdf.NoID, rdf.NoID, rdf.NoID, 5},
		{id("s1"), rdf.NoID, rdf.NoID, 3},
		{rdf.NoID, id("p1"), rdf.NoID, 3},
		{rdf.NoID, rdf.NoID, id("o1"), 3},
		{id("s1"), id("p1"), rdf.NoID, 2},
		{id("s1"), rdf.NoID, id("o1"), 2},
		{rdf.NoID, id("p1"), id("o1"), 2},
		{id("s2"), id("p2"), id("o3"), 1},
		{id("s2"), id("p2"), id("o1"), 0},
	}
	for i, c := range cases {
		if got := st.Snapshot().CountMatch(c.s, c.p, c.o); got != c.want {
			t.Errorf("case %d: CountMatch = %d, want %d", i, got, c.want)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := New(8)
	for i := 0; i < 10; i++ {
		st.Add(mkTriple(fmt.Sprintf("s%d", i), "p", "o"))
	}
	n := 0
	st.Snapshot().Match(rdf.NoID, rdf.NoID, rdf.NoID, func(rdf.EncodedTriple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestScanChunks(t *testing.T) {
	st := New(10)
	for i := 0; i < 10; i++ {
		st.Add(mkTriple(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("o%d", i)))
	}
	var all []rdf.EncodedTriple
	offset := 0
	for {
		var chunk []rdf.EncodedTriple
		n := st.Snapshot().Scan(offset, 3, func(e rdf.EncodedTriple) bool {
			chunk = append(chunk, e)
			return true
		})
		if n == 0 {
			break
		}
		all = append(all, chunk...)
		offset += n
	}
	if len(all) != 10 {
		t.Fatalf("chunked scan visited %d, want 10", len(all))
	}
	// The windows partition the set: every subject exactly once.
	subjects := make(map[rdf.ID]bool)
	for _, e := range all {
		subjects[e.S] = true
	}
	if len(subjects) != 10 {
		t.Errorf("chunked scan visited %d distinct subjects, want 10", len(subjects))
	}
	if st.Snapshot().Scan(-5, 2, func(rdf.EncodedTriple) bool { return true }) != 2 {
		t.Error("negative offset should clamp to 0")
	}
	if st.Snapshot().Scan(100, 5, func(rdf.EncodedTriple) bool { return true }) != 0 {
		t.Error("offset beyond end should visit nothing")
	}
	if st.Snapshot().Scan(8, 0, func(rdf.EncodedTriple) bool { return true }) != 2 {
		t.Error("limit<=0 should scan to the end")
	}
}

// TestIndexConsistencyProperty: the same random set of triples must be
// reported identically through each access path (full scan, per-subject,
// per-predicate, per-object).
func TestIndexConsistencyProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	st := New(256)
	want := map[rdf.Triple]struct{}{}
	for i := 0; i < 1000; i++ {
		tri := mkTriple(
			fmt.Sprintf("s%d", r.Intn(30)),
			fmt.Sprintf("p%d", r.Intn(10)),
			fmt.Sprintf("o%d", r.Intn(50)),
		)
		st.Add(tri)
		want[tri] = struct{}{}
	}
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}

	collect := func(s, p, o rdf.ID) map[rdf.Triple]struct{} {
		got := map[rdf.Triple]struct{}{}
		st.Snapshot().Match(s, p, o, func(e rdf.EncodedTriple) bool {
			got[st.Dict().Decode(e)] = struct{}{}
			return true
		})
		return got
	}
	if got := collect(rdf.NoID, rdf.NoID, rdf.NoID); !reflect.DeepEqual(got, want) {
		t.Fatal("full scan disagrees with inserted set")
	}

	// Union over each subject must equal the whole set, same for p and o.
	for pos := 0; pos < 3; pos++ {
		got := map[rdf.Triple]struct{}{}
		seen := map[rdf.ID]struct{}{}
		for tri := range want {
			var key rdf.Term
			switch pos {
			case 0:
				key = tri.S
			case 1:
				key = tri.P
			default:
				key = tri.O
			}
			id, ok := st.Dict().Lookup(key)
			if !ok {
				t.Fatalf("term not interned: %v", key)
			}
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			var part map[rdf.Triple]struct{}
			switch pos {
			case 0:
				part = collect(id, rdf.NoID, rdf.NoID)
			case 1:
				part = collect(rdf.NoID, id, rdf.NoID)
			default:
				part = collect(rdf.NoID, rdf.NoID, id)
			}
			for k := range part {
				got[k] = struct{}{}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("index position %d union disagrees: got %d, want %d", pos, len(got), len(want))
		}
	}
}

func TestObjectsSubjectsHelpers(t *testing.T) {
	st := New(8)
	st.Load([]rdf.Triple{
		mkTriple("s1", "p", "o1"),
		mkTriple("s1", "p", "o2"),
		mkTriple("s2", "p", "o1"),
		mkTriple("s1", "q", "o3"),
	})
	d := st.Dict()
	s1, _ := d.Lookup(iri("s1"))
	p, _ := d.Lookup(iri("p"))
	o1, _ := d.Lookup(iri("o1"))
	if got := st.Snapshot().Objects(s1, p); len(got) != 2 {
		t.Errorf("Objects = %d, want 2", len(got))
	}
	if got := st.Snapshot().Subjects(p, o1); len(got) != 2 {
		t.Errorf("Subjects = %d, want 2", len(got))
	}
	if got := st.Snapshot().Objects(o1, p); got != nil {
		t.Errorf("Objects of non-subject should be nil, got %v", got)
	}
	preds := st.Snapshot().PredicatesOf(s1)
	if len(preds) != 2 {
		t.Errorf("PredicatesOf = %d, want 2", len(preds))
	}
	into := st.Snapshot().PredicatesInto(o1)
	if len(into) != 1 {
		t.Errorf("PredicatesInto = %d, want 1", len(into))
	}
}

func TestSubjectsOfType(t *testing.T) {
	st := New(8)
	person := iri("Person")
	st.Add(rdf.Triple{S: iri("alice"), P: rdf.TypeIRI, O: person})
	st.Add(rdf.Triple{S: iri("bob"), P: rdf.TypeIRI, O: person})
	st.Add(rdf.Triple{S: iri("rex"), P: rdf.TypeIRI, O: iri("Dog")})
	pid, _ := st.Dict().Lookup(person)
	got := st.Snapshot().SubjectsOfType(pid)
	if len(got) != 2 {
		t.Errorf("SubjectsOfType = %d, want 2", len(got))
	}
}

func TestLabelFallsBackToLocalName(t *testing.T) {
	st := New(4)
	st.Add(rdf.Triple{S: iri("Philosopher"), P: rdf.LabelIRI, O: rdf.NewLiteral("Philosopher (label)")})
	st.Add(rdf.Triple{S: iri("Unlabeled"), P: iri("p"), O: iri("o")})
	d := st.Dict()
	lab, _ := d.Lookup(iri("Philosopher"))
	if got := st.Label(lab); got != "Philosopher (label)" {
		t.Errorf("Label = %q", got)
	}
	unl, _ := d.Lookup(iri("Unlabeled"))
	if got := st.Label(unl); got != "Unlabeled" {
		t.Errorf("fallback Label = %q", got)
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	st := New(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Snapshot().CountMatch(rdf.NoID, rdf.NoID, rdf.NoID)
				st.ComputeStats()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		st.Add(mkTriple(fmt.Sprintf("s%d", i), "p", "o"))
	}
	close(stop)
	wg.Wait()
	if st.Len() != 500 {
		t.Errorf("Len = %d, want 500", st.Len())
	}
}

func TestComputeStats(t *testing.T) {
	st := New(16)
	st.Load([]rdf.Triple{
		{S: iri("Person"), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
		{S: iri("Dog"), P: rdf.TypeIRI, O: rdf.RDFSClassIRI},
		{S: iri("Person"), P: rdf.SubClassOfIRI, O: rdf.OWLThingIRI},
		{S: iri("alice"), P: rdf.TypeIRI, O: iri("Person")},
		{S: iri("alice"), P: iri("name"), O: rdf.NewLiteral("Alice")},
		{S: iri("rex"), P: rdf.TypeIRI, O: iri("Dog")},
	})
	stats := st.ComputeStats()
	if stats.Triples != 6 {
		t.Errorf("Triples = %d", stats.Triples)
	}
	if stats.DeclaredClasses != 2 {
		t.Errorf("DeclaredClasses = %d, want 2 (Person, Dog)", stats.DeclaredClasses)
	}
	// Classes: Person, Dog, owl:Class, rdfs:Class, owl:Thing.
	if stats.Classes != 5 {
		t.Errorf("Classes = %d, want 5", stats.Classes)
	}
	if stats.TypedSubjects != 4 {
		t.Errorf("TypedSubjects = %d, want 4 (Person, Dog, alice, rex)", stats.TypedSubjects)
	}
	if stats.Literals != 1 {
		t.Errorf("Literals = %d", stats.Literals)
	}
}

func TestDeclaredClassListAndSearch(t *testing.T) {
	st := New(16)
	st.Load([]rdf.Triple{
		{S: iri("Philosopher"), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
		{S: iri("Politician"), P: rdf.TypeIRI, O: rdf.OWLClassIRI},
		{S: iri("Place"), P: rdf.TypeIRI, O: rdf.RDFSClassIRI},
	})
	all := st.Snapshot().DeclaredClassList()
	if len(all) != 3 {
		t.Fatalf("DeclaredClassList = %d, want 3", len(all))
	}
	labels := make([]string, len(all))
	for i, id := range all {
		labels[i] = st.Label(id)
	}
	if !sort.StringsAreSorted(labels) {
		t.Errorf("class list not sorted by label: %v", labels)
	}
	hits := st.SearchClasses("phil")
	if len(hits) != 1 || st.Label(hits[0]) != "Philosopher" {
		t.Errorf("SearchClasses(phil) = %v", hits)
	}
	if got := st.SearchClasses(""); len(got) != 3 {
		t.Errorf("empty query should return all, got %d", len(got))
	}
	if got := st.SearchClasses("zzz"); len(got) != 0 {
		t.Errorf("no-hit query returned %d", len(got))
	}
}

func TestContainsFold(t *testing.T) {
	cases := []struct {
		s, sub string
		want   bool
	}{
		{"Philosopher", "phil", true},
		{"Philosopher", "PHER", true},
		{"Philosopher", "xyz", false},
		{"abc", "", true},
		{"ab", "abc", false},
	}
	for _, c := range cases {
		if got := containsFold(c.s, c.sub); got != c.want {
			t.Errorf("containsFold(%q,%q) = %v", c.s, c.sub, got)
		}
	}
}

// randomStoreForCard loads a random dataset with deliberately shuffled
// insertion order, so sorted-posting maintenance is exercised on the
// out-of-order insert path too.
func randomStoreForCard(r *rand.Rand) *Store {
	st := New(64)
	n := 40 + r.Intn(60)
	for i := 0; i < n; i++ {
		st.Add(mkTriple(
			fmt.Sprintf("s%d", r.Intn(9)),
			fmt.Sprintf("p%d", r.Intn(4)),
			fmt.Sprintf("o%d", r.Intn(9))))
	}
	return st
}

// TestCardMatchAgreesWithCountMatch checks the O(1) index-size
// cardinalities against the triple-walking count for every pattern shape.
func TestCardMatchAgreesWithCountMatch(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		st := randomStoreForCard(r)
		pick := func(pool string, n int) rdf.ID {
			if r.Intn(3) == 0 {
				return rdf.NoID
			}
			id, ok := st.Dict().Lookup(iri(fmt.Sprintf("%s%d", pool, r.Intn(n))))
			if !ok {
				return rdf.NoID
			}
			return id
		}
		for probe := 0; probe < 40; probe++ {
			s, p, o := pick("s", 9), pick("p", 4), pick("o", 9)
			want := st.Snapshot().CountMatch(s, p, o)
			if got := st.Snapshot().CardMatch(s, p, o); got != want {
				t.Fatalf("CardMatch(%d,%d,%d) = %d, CountMatch = %d", s, p, o, got, want)
			}
		}
	}
}

// TestPostingsSorted checks that every single-wildcard pattern yields its
// matches as a sorted ID list, and that other shapes report ok=false.
func TestPostingsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	st := randomStoreForCard(r)
	id := func(pool string, i int) rdf.ID {
		v, _ := st.Dict().Lookup(iri(fmt.Sprintf("%s%d", pool, i)))
		return v
	}
	checked := 0
	for si := 0; si < 9; si++ {
		for pi := 0; pi < 4; pi++ {
			for _, pat := range [][3]rdf.ID{
				{id("s", si), id("p", pi), rdf.NoID},
				{rdf.NoID, id("p", pi), id("o", si)},
				{id("s", si), rdf.NoID, id("o", si)},
			} {
				got, ok := st.Snapshot().Postings(pat[0], pat[1], pat[2])
				if !ok {
					t.Fatalf("Postings(%v) not ok", pat)
				}
				if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
					t.Fatalf("Postings(%v) not sorted: %v", pat, got)
				}
				var want []rdf.ID
				st.Snapshot().Match(pat[0], pat[1], pat[2], func(e rdf.EncodedTriple) bool {
					switch {
					case pat[2] == rdf.NoID:
						want = append(want, e.O)
					case pat[0] == rdf.NoID:
						want = append(want, e.S)
					default:
						want = append(want, e.P)
					}
					return true
				})
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Postings(%v) = %v, want %v", pat, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no patterns checked")
	}
	for _, pat := range [][3]rdf.ID{
		{rdf.NoID, rdf.NoID, rdf.NoID},
		{id("s", 0), rdf.NoID, rdf.NoID},
		{id("s", 0), id("p", 0), id("o", 0)},
	} {
		if _, ok := st.Snapshot().Postings(pat[0], pat[1], pat[2]); ok {
			t.Errorf("Postings(%v) should not be ok", pat)
		}
	}
}

// TestContainsIDAndSortedDedup checks ContainsID and that duplicate
// detection survives without the old seen-map, including out-of-order
// inserts that shift posting lists.
func TestContainsIDAndSortedDedup(t *testing.T) {
	st := New(4)
	// Insert objects in descending dictionary order to force shifts.
	st.Add(mkTriple("s", "p", "z"))
	st.Add(mkTriple("s", "p", "a"))
	st.Add(mkTriple("s", "p", "m"))
	for _, o := range []string{"z", "a", "m"} {
		if added, _ := st.Add(mkTriple("s", "p", o)); added {
			t.Errorf("duplicate (s,p,%s) re-added", o)
		}
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	sid, _ := st.Dict().Lookup(iri("s"))
	pid, _ := st.Dict().Lookup(iri("p"))
	for _, o := range []string{"z", "a", "m"} {
		oid, _ := st.Dict().Lookup(iri(o))
		if !st.Snapshot().ContainsID(sid, pid, oid) {
			t.Errorf("ContainsID(s,p,%s) = false", o)
		}
	}
	if st.Snapshot().ContainsID(sid, pid, sid) {
		t.Error("ContainsID found absent triple")
	}
	objs := st.Snapshot().Objects(sid, pid)
	if !sort.SliceIsSorted(objs, func(i, j int) bool { return objs[i] < objs[j] }) {
		t.Errorf("Objects not sorted after out-of-order inserts: %v", objs)
	}
}
