package rdf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictInternAssignsDenseIDs(t *testing.T) {
	d := NewDict(4)
	a := d.Intern(NewIRI("http://x/a"))
	b := d.Intern(NewIRI("http://x/b"))
	if a != 1 || b != 2 {
		t.Errorf("IDs not dense from 1: a=%d b=%d", a, b)
	}
	if got := d.Intern(NewIRI("http://x/a")); got != a {
		t.Errorf("re-intern returned %d, want %d", got, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestDictLookupDoesNotInsert(t *testing.T) {
	d := NewDict(1)
	if _, ok := d.Lookup(NewIRI("http://x/a")); ok {
		t.Error("Lookup found a term in empty dict")
	}
	if d.Len() != 0 {
		t.Error("Lookup must not insert")
	}
	d.Intern(NewIRI("http://x/a"))
	if id, ok := d.LookupIRI("http://x/a"); !ok || id != 1 {
		t.Errorf("LookupIRI = (%d,%v)", id, ok)
	}
}

func TestDictTermPanicsOnInvalid(t *testing.T) {
	d := NewDict(0)
	for _, id := range []ID{NoID, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", id)
				}
			}()
			d.Term(id)
		}()
	}
	if _, ok := d.TermOK(NoID); ok {
		t.Error("TermOK(NoID) should fail")
	}
}

func TestDictEncodeDecodeRoundtrip(t *testing.T) {
	d := NewDict(8)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		in := Triple{
			S: randomTerm(r, false),
			P: NewIRI("http://example.org/" + randIdent(r)),
			O: randomTerm(r, true),
		}
		if got := d.Decode(d.Encode(in)); got != in {
			t.Fatalf("roundtrip mismatch: %v -> %v", in, got)
		}
	}
}

func TestDictInternIdempotentProperty(t *testing.T) {
	d := NewDict(16)
	f := func(iri string) bool {
		t1 := NewIRI("http://q/" + iri)
		id1 := d.Intern(t1)
		id2 := d.Intern(t1)
		back := d.Term(id1)
		return id1 == id2 && back == t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDictConcurrentIntern(t *testing.T) {
	d := NewDict(0)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	ids := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				// All goroutines intern the same term sequence; IDs must agree.
				ids[g][i] = d.Intern(NewIRI("http://x/shared"))
			}
		}(g)
	}
	wg.Wait()
	want := ids[0][0]
	for g := range ids {
		for i := range ids[g] {
			if ids[g][i] != want {
				t.Fatalf("goroutine %d saw ID %d, want %d", g, ids[g][i], want)
			}
		}
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDictBatchCanonicalOrder(t *testing.T) {
	d := NewDict(0)
	preID := d.Intern(NewIRI("http://x/pre"))

	b := d.NewBatch()
	// Intern out of occurrence order, from two goroutines.
	terms := make([]Term, 40)
	for i := range terms {
		terms[i] = NewIRI("http://x/t" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	var wg sync.WaitGroup
	prov := make([][]ID, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prov[g] = make([]ID, len(terms))
			for i := len(terms) - 1; i >= 0; i-- {
				if i%2 == g {
					prov[g][i] = b.Intern(uint64(i), terms[i])
				}
			}
			// Existing terms resolve canonically even inside the batch.
			if got := b.Intern(999, NewIRI("http://x/pre")); got != preID {
				t.Errorf("goroutine %d: pre-interned term got %d, want %d", g, got, preID)
			}
		}(g)
	}
	wg.Wait()
	if added := b.Commit(); added != len(terms) {
		t.Fatalf("Commit added %d, want %d", added, len(terms))
	}
	// Canonical IDs follow occurrence order: terms[0] right after the
	// pre-existing vocabulary, then terms[1], ...
	for i, term := range terms {
		g := i % 2
		want := preID + ID(i) + 1
		if got := b.Canonical(prov[g][i]); got != want {
			t.Fatalf("term %d: canonical %d, want %d", i, got, want)
		}
		if id, ok := d.Lookup(term); !ok || id != want {
			t.Fatalf("term %d: dict lookup (%d,%v), want %d", i, id, ok, want)
		}
	}
	// Past Commit the batch keeps only the remap Canonical reads: its
	// intern state would otherwise stay live through the rest of a load.
	for si := range b.shards {
		if sh := &b.shards[si]; sh.entries != nil || sh.terms != nil || sh.firsts != nil {
			t.Fatalf("shard %d still holds intern state after Commit", si)
		}
	}
}

func TestDictBatchAbandonLeavesDictUntouched(t *testing.T) {
	d := NewDict(0)
	d.Intern(NewIRI("http://x/a"))
	b := d.NewBatch()
	b.Intern(0, NewIRI("http://x/new1"))
	b.Intern(1, NewIRI("http://x/new2"))
	// No Commit: the dictionary must not have grown.
	if d.Len() != 1 {
		t.Fatalf("abandoned batch leaked terms: Len=%d", d.Len())
	}
	if _, ok := d.Lookup(NewIRI("http://x/new1")); ok {
		t.Fatal("abandoned batch term visible in dict")
	}
}

func TestNewDictFromTermsRejectsBadArenas(t *testing.T) {
	if _, err := NewDictFromTerms([]Term{NewIRI("http://x/a"), {}}); err == nil {
		t.Error("zero term accepted")
	}
	dup := NewIRI("http://x/a")
	if _, err := NewDictFromTerms([]Term{dup, NewIRI("http://x/b"), dup}); err == nil {
		t.Error("duplicate term accepted")
	}
	d, err := NewDictFromTerms([]Term{NewIRI("http://x/a"), NewBlank("b")})
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := d.Lookup(NewBlank("b")); !ok || id != 2 {
		t.Fatalf("rebuilt dict lookup = (%d,%v)", id, ok)
	}
	// And it stays a normal, growable dictionary.
	if id := d.Intern(NewIRI("http://x/c")); id != 3 {
		t.Fatalf("post-rebuild intern = %d, want 3", id)
	}
}

// TestDictConcurrentInternWithPublish hammers Intern from several
// goroutines while publishReads concurrently folds shard entries into
// fresh read maps and clears the shards. Every goroutine must observe
// one stable ID per term and the dictionary must never double-assign.
func TestDictConcurrentInternWithPublish(t *testing.T) {
	d := NewDict(0)
	const goroutines, iters, vocab = 4, 3000, 257
	seen := make([]map[string]ID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen[g] = make(map[string]ID, vocab)
			for i := 0; i < iters; i++ {
				name := "http://x/t" + string(rune('0'+i%10)) + "/" + string(rune('a'+(i*7)%26)) + "/" + string(rune('a'+i%vocab%26)) + string(rune('0'+(i%vocab)/26))
				id := d.Intern(NewIRI(name))
				if prev, ok := seen[g][name]; ok && prev != id {
					panic("ID changed across interns")
				}
				seen[g][name] = id
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				d.PublishReads()
			}
		}
	}()
	wg.Wait()
	close(done)
	for g := 1; g < goroutines; g++ {
		for name, id := range seen[g] {
			if seen[0][name] != id {
				t.Fatalf("goroutine %d saw %s=%d, goroutine 0 saw %d", g, name, id, seen[0][name])
			}
		}
	}
	if d.Len() != len(seen[0]) {
		t.Fatalf("Len=%d, distinct terms=%d (duplicate allocation?)", d.Len(), len(seen[0]))
	}
	// Every term still resolves after the final publish cleared shards.
	for name, id := range seen[0] {
		if got, ok := d.Lookup(NewIRI(name)); !ok || got != id {
			t.Fatalf("Lookup(%s) = (%d,%v), want %d", name, got, ok, id)
		}
	}
}

// TestDictBatchCommitReusesConcurrentInterns: a batch term that a plain
// Intern added after NewBatch keeps that ID at Commit, which counts only
// the terms it appended. An interner racing the Commit itself must see
// IDs stay dense, no term enter the arena twice, every term round-trip,
// and the write shards emptied by the publish.
func TestDictBatchCommitReusesConcurrentInterns(t *testing.T) {
	d := NewDict(0)
	d.Intern(NewIRI("http://x/pre"))
	b := d.NewBatch()
	terms := make([]Term, 5000)
	prov := make([]ID, len(terms))
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://x/batch/%d", i))
		prov[i] = b.Intern(uint64(i), terms[i])
	}
	direct := map[int]ID{}
	for i := 0; i < len(terms); i += 3 {
		direct[i] = d.Intern(terms[i])
	}

	// The racer interns terms of its own and looks up batch terms until
	// Commit has returned; a batch term it finds must already carry the
	// ID Commit gives it.
	racerIDs := map[Term]ID{}
	found := map[int]ID{}
	stop, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			rt := NewIRI(fmt.Sprintf("http://x/racer/%d", i))
			racerIDs[rt] = d.Intern(rt)
			if id, ok := d.Lookup(terms[i%len(terms)]); ok {
				found[i%len(terms)] = id
			}
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	added := b.Commit()
	close(stop)
	wg.Wait()

	if want := len(terms) - len(direct); added != want {
		t.Errorf("Commit added %d, want %d", added, want)
	}
	var maxBatch ID
	for i, term := range terms {
		id := b.Canonical(prov[i])
		if want, ok := direct[i]; ok && id != want {
			t.Fatalf("term %d: canonical %d, want the mid-batch Intern's %d", i, id, want)
		}
		if got, ok := found[i]; ok && got != id {
			t.Fatalf("term %d: racer looked up %d, canonical %d", i, got, id)
		}
		if got, ok := d.Lookup(term); !ok || got != id || d.Term(id) != term {
			t.Fatalf("term %d: Lookup (%d,%v), canonical %d, Term %v", i, got, ok, id, d.Term(id))
		}
		maxBatch = max(maxBatch, id)
	}
	for rt, id := range racerIDs {
		if got, ok := d.Lookup(rt); !ok || got != id || d.Term(id) != rt {
			t.Fatalf("racer term %v: Lookup (%d,%v), interned as %d", rt, got, ok, id)
		}
	}
	// Dense and duplicate-free: the arena holds exactly the distinct
	// terms interned, each once.
	seen := map[Term]bool{}
	for _, term := range d.Terms() {
		if seen[term] {
			t.Fatalf("%v appears twice in the arena", term)
		}
		seen[term] = true
	}
	if want := 1 + len(terms) + len(racerIDs); d.Len() != want {
		t.Fatalf("Len = %d, want %d", d.Len(), want)
	}
	// Commit emptied the shards: whatever sits in one now was interned
	// by the racer after Commit published.
	for i := range d.shards {
		for term, id := range d.shards[i].byVal {
			if id <= maxBatch {
				t.Fatalf("shard %d still holds %v (ID %d) after Commit", i, term, id)
			}
		}
	}
}
