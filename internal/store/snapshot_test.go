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

// matchSet gathers a pattern's matches from r into a set.
func matchSet(r *Snapshot, s, p, o rdf.ID) map[rdf.EncodedTriple]struct{} {
	got := map[rdf.EncodedTriple]struct{}{}
	r.Match(s, p, o, func(e rdf.EncodedTriple) bool {
		got[e] = struct{}{}
		return true
	})
	return got
}

// TestSnapshotAgreesWithLiveStore is the store-level differential
// property: for random datasets built through a mix of Load batches and
// individual Adds (so both the bulk sort-once path and the sorted delta
// overlay are exercised), every read — Match, CardMatch, Postings,
// PredicatesOf, PredicatesInto — must agree between the snapshot the
// store publishes on each load and one snapshot held throughout, for
// every pattern shape, and CardMatch must count exactly Match's triples.
func TestSnapshotAgreesWithLiveStore(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		st := New(64)
		mk := func() rdf.Triple {
			return mkTriple(
				fmt.Sprintf("s%d", r.Intn(10)),
				fmt.Sprintf("p%d", r.Intn(5)),
				fmt.Sprintf("o%d", r.Intn(10)))
		}
		// A bulk batch first, then individual adds that stay in the delta.
		var batch []rdf.Triple
		for i := 0; i < 60+r.Intn(60); i++ {
			batch = append(batch, mk())
		}
		if _, err := st.Load(batch); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.Intn(40); i++ {
			st.Add(mk())
		}

		// The live store must agree with the snapshot it publishes for
		// every probe, whether a triple lives in the columnar base, the
		// sorted delta, or the recent-adds tail.
		type probe struct{ s, p, o rdf.ID }
		var probes []probe
		id := func(pool string, n int) rdf.ID {
			if r.Intn(4) == 0 {
				return rdf.NoID
			}
			v, _ := st.Dict().Lookup(iri(fmt.Sprintf("%s%d", pool, r.Intn(n))))
			return v
		}
		for i := 0; i < 60; i++ {
			probes = append(probes, probe{id("s", 10), id("p", 5), id("o", 10)})
		}

		before := make([]map[rdf.EncodedTriple]struct{}, len(probes))
		cards := make([]int, len(probes))
		for i, pr := range probes {
			before[i] = matchSet(st.Snapshot(), pr.s, pr.p, pr.o)
			cards[i] = st.Snapshot().CardMatch(pr.s, pr.p, pr.o)
		}

		snap := st.Snapshot()
		for i, pr := range probes {
			if got := matchSet(snap, pr.s, pr.p, pr.o); !reflect.DeepEqual(got, before[i]) {
				t.Fatalf("trial %d: snapshot Match(%v) diverges from live store", trial, pr)
			}
			if got := snap.CardMatch(pr.s, pr.p, pr.o); got != cards[i] {
				t.Fatalf("trial %d: snapshot CardMatch(%v) = %d, live = %d", trial, pr, got, cards[i])
			}
			if got := matchSet(st.Snapshot(), pr.s, pr.p, pr.o); !reflect.DeepEqual(got, before[i]) {
				t.Fatalf("trial %d: live store answers changed between reads", trial)
			}
			if len(before[i]) != cards[i] {
				t.Fatalf("trial %d: CardMatch(%v) = %d but %d matches", trial, pr, cards[i], len(before[i]))
			}
			liveP, okL := st.Snapshot().Postings(pr.s, pr.p, pr.o)
			snapP, okS := snap.Postings(pr.s, pr.p, pr.o)
			if okL != okS || !reflect.DeepEqual(append([]rdf.ID{}, liveP...), append([]rdf.ID{}, snapP...)) {
				t.Fatalf("trial %d: Postings(%v) diverge: live=%v snap=%v", trial, pr, liveP, snapP)
			}
		}
		for i := 0; i < 10; i++ {
			sid, _ := st.Dict().Lookup(iri(fmt.Sprintf("s%d", r.Intn(10))))
			oid, _ := st.Dict().Lookup(iri(fmt.Sprintf("o%d", r.Intn(10))))
			if !reflect.DeepEqual(st.Snapshot().PredicatesOf(sid), snap.PredicatesOf(sid)) {
				t.Fatalf("trial %d: PredicatesOf diverge", trial)
			}
			if !reflect.DeepEqual(st.Snapshot().PredicatesInto(oid), snap.PredicatesInto(oid)) {
				t.Fatalf("trial %d: PredicatesInto diverge", trial)
			}
		}
	}
}

// TestSnapshotImmutableUnderWrites pins the publication protocol: a
// snapshot's contents are frozen at its generation; later writes are
// visible in the live store and in later snapshots only.
func TestSnapshotImmutableUnderWrites(t *testing.T) {
	st := New(16)
	st.Load([]rdf.Triple{mkTriple("a", "p", "x"), mkTriple("b", "p", "x")})
	snap := st.Snapshot()
	if snap.Len() != 2 || snap.Generation() != st.Generation() {
		t.Fatalf("snapshot len=%d gen=%d, store gen=%d", snap.Len(), snap.Generation(), st.Generation())
	}
	pid, _ := st.Dict().Lookup(iri("p"))
	xid, _ := st.Dict().Lookup(iri("x"))
	subsBefore := snap.Subjects(pid, xid)
	if len(subsBefore) != 2 {
		t.Fatalf("Subjects = %d, want 2", len(subsBefore))
	}

	st.Add(mkTriple("c", "p", "x"))
	if snap.Len() != 2 {
		t.Error("published snapshot grew after Add")
	}
	if got := snap.Subjects(pid, xid); len(got) != 2 {
		t.Errorf("snapshot Subjects changed after Add: %v", got)
	}
	if got := st.Snapshot().Subjects(pid, xid); len(got) != 3 {
		t.Errorf("live Subjects = %d, want 3", len(got))
	}
	snap2 := st.Snapshot()
	if snap2.Len() != 3 || snap2.Generation() <= snap.Generation() {
		t.Errorf("new snapshot len=%d gen=%d (old gen %d)", snap2.Len(), snap2.Generation(), snap.Generation())
	}
	// Unchanged store: Snapshot() returns the same publication.
	if st.Snapshot() != snap2 {
		t.Error("Snapshot() should return the same snapshot when nothing changed")
	}
}

// TestScanCallbackMayWrite pins the re-entrancy contract: Scan (and
// Match) hold no lock, so their callbacks may call store write methods —
// this used to deadlock when reads held the store RWMutex. Writes made
// mid-scan are not visible to the in-flight iteration.
func TestScanCallbackMayWrite(t *testing.T) {
	st := New(16)
	for i := 0; i < 5; i++ {
		st.Add(mkTriple(fmt.Sprintf("s%d", i), "p", "o"))
	}
	visited := 0
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
		visited++
		if _, err := st.Add(mkTriple(fmt.Sprintf("mid%d", visited), "p", "o")); err != nil {
			t.Errorf("re-entrant Add failed: %v", err)
		}
		return true
	})
	if visited != 5 {
		t.Errorf("scan visited %d, want 5 (mid-scan writes must not be visible)", visited)
	}
	if st.Len() != 10 {
		t.Errorf("Len = %d, want 10", st.Len())
	}
	// Same for Match.
	n := 0
	st.Snapshot().Match(rdf.NoID, rdf.NoID, rdf.NoID, func(e rdf.EncodedTriple) bool {
		n++
		st.Add(mkTriple("match-reentry", fmt.Sprintf("q%d", n), "o"))
		return n < 3
	})
	if n != 3 {
		t.Errorf("match visited %d, want 3", n)
	}
}

// TestPredicatesIntoSortedDeduped pins the satellite fix: the result is
// sorted, duplicate-free, and identical across calls.
func TestPredicatesIntoSortedDeduped(t *testing.T) {
	st := New(16)
	st.Load([]rdf.Triple{
		mkTriple("s1", "p2", "o"),
		mkTriple("s2", "p1", "o"),
		mkTriple("s3", "p2", "o"),
		mkTriple("s4", "p1", "o"),
		mkTriple("s5", "p3", "o"),
	})
	oid, _ := st.Dict().Lookup(iri("o"))
	got := st.Snapshot().PredicatesInto(oid)
	if len(got) != 3 {
		t.Fatalf("PredicatesInto = %v, want 3 distinct predicates", got)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("PredicatesInto not sorted: %v", got)
	}
	if again := st.Snapshot().PredicatesInto(oid); !reflect.DeepEqual(got, again) {
		t.Errorf("PredicatesInto not deterministic: %v vs %v", got, again)
	}
	// Delta path: an Add introducing a new predicate keeps the contract.
	st.Add(mkTriple("s6", "a1", "o"))
	got = st.Snapshot().PredicatesInto(oid)
	if len(got) != 4 || !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("PredicatesInto after delta Add: %v", got)
	}
}

// TestDeltaCompaction crosses the automatic compaction threshold through
// individual Adds and verifies reads stay correct on both sides of it.
func TestDeltaCompaction(t *testing.T) {
	st := New(16)
	n := minDeltaCompact*2 + 100
	for i := 0; i < n; i++ {
		added, err := st.Add(mkTriple(fmt.Sprintf("s%d", i%50), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i)))
		if err != nil || !added {
			t.Fatalf("add %d = (%v, %v)", i, added, err)
		}
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d", st.Len(), n)
	}
	sid, _ := st.Dict().Lookup(iri("s7"))
	want := 0
	for i := 0; i < n; i++ {
		if i%50 == 7 {
			want++
		}
	}
	if got := st.Snapshot().CardMatch(sid, rdf.NoID, rdf.NoID); got != want {
		t.Errorf("CardMatch(s7,?,?) = %d, want %d", got, want)
	}
	// Every triple is findable after compactions.
	for i := 0; i < n; i += 97 {
		if !st.Snapshot().ContainsTriple(mkTriple(fmt.Sprintf("s%d", i%50), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i))) {
			t.Fatalf("triple %d lost across compaction", i)
		}
	}
	// A scan visits every triple exactly once across compactions (each
	// has its own object).
	seen := make(map[rdf.ID]bool, n)
	st.Snapshot().Scan(0, 0, func(e rdf.EncodedTriple) bool {
		if seen[e.O] {
			t.Fatalf("scan visited %v twice", st.Dict().Decode(e))
		}
		seen[e.O] = true
		return true
	})
	if len(seen) != n {
		t.Fatalf("scan visited %d triples, want %d", len(seen), n)
	}
}

// TestSnapshotConcurrentWithWrites races snapshot publication and
// lock-free reads against a stream of Add and Load calls; run under
// -race (make check) it doubles as the snapshot race test.
func TestSnapshotConcurrentWithWrites(t *testing.T) {
	st := New(256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := st.Snapshot()
				// Reads on the frozen snapshot must be self-consistent:
				// Len, the index cardinality, and the full-scan count agree.
				n := 0
				snap.Match(rdf.NoID, rdf.NoID, rdf.NoID, func(rdf.EncodedTriple) bool { n++; return true })
				if n != snap.Len() || snap.CardMatch(rdf.NoID, rdf.NoID, rdf.NoID) != n {
					t.Errorf("snapshot inconsistent: scan=%d len=%d", n, snap.Len())
					return
				}
				// And live-store reads must never fail mid-write.
				st.Snapshot().CardMatch(rdf.NoID, rdf.NoID, rdf.NoID)
				st.Snapshot().Scan(0, 64, func(rdf.EncodedTriple) bool { return true })
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		if i%10 == 0 {
			var batch []rdf.Triple
			for j := 0; j < 20; j++ {
				batch = append(batch, mkTriple(fmt.Sprintf("b%d-%d", i, j), "p", "o"))
			}
			if _, err := st.Load(batch); err != nil {
				t.Fatal(err)
			}
		} else {
			st.Add(mkTriple(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%5), fmt.Sprintf("o%d", i%40)))
		}
	}
	close(stop)
	wg.Wait()
}

// TestLoadBulkEqualsAddLoop: the sort-once bulk build and the per-insert
// delta path must construct identical stores.
func TestLoadBulkEqualsAddLoop(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var ts []rdf.Triple
	for i := 0; i < 3000; i++ {
		ts = append(ts, mkTriple(
			fmt.Sprintf("s%d", r.Intn(40)),
			fmt.Sprintf("p%d", r.Intn(6)),
			fmt.Sprintf("o%d", r.Intn(80))))
	}
	bulk := New(len(ts))
	nBulk, err := bulk.Load(ts)
	if err != nil {
		t.Fatal(err)
	}
	loop := New(len(ts))
	nLoop := 0
	for _, tr := range ts {
		if added, err := loop.Add(tr); err != nil {
			t.Fatal(err)
		} else if added {
			nLoop++
		}
	}
	if nBulk != nLoop || bulk.Len() != loop.Len() {
		t.Fatalf("bulk added %d (len %d), loop added %d (len %d)", nBulk, bulk.Len(), nLoop, loop.Len())
	}
	if bulk.Generation() != loop.Generation() {
		t.Errorf("generations diverge: bulk %d, loop %d", bulk.Generation(), loop.Generation())
	}
	sb, sl := bulk.Snapshot(), loop.Snapshot()
	for i := 0; i < 40; i++ {
		s, _ := bulk.Dict().Lookup(iri(fmt.Sprintf("s%d", i)))
		if got, want := matchSet(sl, s, rdf.NoID, rdf.NoID), matchSet(sb, s, rdf.NoID, rdf.NoID); !reflect.DeepEqual(got, want) {
			t.Fatalf("subject s%d: bulk and add-loop stores diverge", i)
		}
	}
}
