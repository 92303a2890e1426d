package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"elinda/internal/rdf"
)

// The differential delete oracle: drive Store.Apply with random
// insert/delete interleavings and check, after every delta, that the
// mutated store is observationally equivalent to a fresh store loaded
// with exactly the surviving triples. The model is a plain set; anything
// the two stores disagree on — length, the scanned set, paging,
// membership, pattern cardinalities, match sets, predicate indexes — is a
// bug in the tombstone/overlay bookkeeping. Scan order is not a
// behaviour: the store is a set.

// oracleModel is the reference implementation of the mutation
// semantics: the set of surviving triples.
type oracleModel struct {
	seen map[rdf.Triple]bool
}

func newOracleModel() *oracleModel {
	return &oracleModel{seen: make(map[rdf.Triple]bool)}
}

// apply mutates the model with one op and reports whether the op was
// effective (changed membership).
func (m *oracleModel) apply(op rdf.TripleOp) bool {
	if op.Del != m.seen[op.Triple] {
		return false
	}
	if op.Del {
		delete(m.seen, op.Triple)
	} else {
		m.seen[op.Triple] = true
	}
	return true
}

// survivors lists the model's triples in a deterministic order.
func (m *oracleModel) survivors() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(m.seen))
	for t := range m.seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return tripleLess(out[i], out[j]) })
	return out
}

// oracleUniverse builds a small dense triple universe so random ops
// collide constantly: inserts of present triples, deletes of absent
// ones, re-inserts after deletes.
func oracleUniverse() []rdf.Triple {
	var u []rdf.Triple
	subjects := []string{"s0", "s1", "s2", "s3", "s4", "s5"}
	preds := []string{"p0", "p1", "p2", "p3"}
	objects := []string{"o0", "o1", "o2", "o3", "o4", "o5"}
	for _, s := range subjects {
		for _, p := range preds {
			for _, o := range objects {
				u = append(u, mkTriple(s, p, o))
			}
		}
	}
	return u
}

// scanPages concatenates the Scan windows of the given chunk size (0 =
// one unbounded window) over one pinned snapshot.
func scanPages(snap *Snapshot, chunk int) []rdf.EncodedTriple {
	var out []rdf.EncodedTriple
	for {
		n := snap.Scan(len(out), chunk, func(e rdf.EncodedTriple) bool {
			out = append(out, e)
			return true
		})
		if n == 0 || chunk == 0 {
			return out
		}
	}
}

// assertScanPartitions is the paging property: for chunk sizes 1, 3, 7
// and 0 the concatenated Scan windows of one snapshot equal Scan(0, 0),
// hold each survivor of the model exactly once, and Len() is their count.
func assertScanPartitions(t *testing.T, snap *Snapshot, model *oracleModel) {
	t.Helper()
	full := scanPages(snap, 0)
	if snap.Len() != len(model.seen) || len(full) != len(model.seen) {
		t.Fatalf("Len = %d, Scan visited %d, model has %d survivors", snap.Len(), len(full), len(model.seen))
	}
	visited := make(map[rdf.Triple]bool, len(full))
	for _, e := range full {
		tr := snap.Triple(e)
		if !model.seen[tr] {
			t.Fatalf("Scan visited %v, which the model says is absent", tr)
		}
		if visited[tr] {
			t.Fatalf("Scan visited %v twice", tr)
		}
		visited[tr] = true
	}
	for _, chunk := range []int{1, 3, 7} {
		if paged := scanPages(snap, chunk); !reflect.DeepEqual(paged, full) {
			t.Fatalf("chunk %d: concatenated pages differ from Scan(0, 0):\n got %v\nwant %v", chunk, paged, full)
		}
	}
	if n := snap.Scan(len(full), 0, func(rdf.EncodedTriple) bool { return true }); n != 0 {
		t.Fatalf("Scan past the end visited %d triples", n)
	}
}

// assertStoreMatchesModel checks every observable read surface of st
// against both the model and a fresh Load of the same survivors.
func assertStoreMatchesModel(t *testing.T, st *Store, model *oracleModel, universe []rdf.Triple) {
	t.Helper()
	assertScanPartitions(t, st.Snapshot(), model)

	// Membership over the whole universe.
	for _, u := range universe {
		if got, want := st.Snapshot().ContainsTriple(u), model.seen[u]; got != want {
			t.Fatalf("ContainsTriple(%v) = %v, model says %v", u, got, want)
		}
	}

	// A fresh store loaded with the survivors is the ground truth for
	// everything pattern-shaped.
	fresh := New(len(model.seen))
	if _, err := fresh.Load(model.survivors()); err != nil {
		t.Fatalf("fresh load: %v", err)
	}
	assertSameReadSurface(t, st, fresh, universe)
}

// assertSameReadSurface compares pattern matching between the mutated
// store and the freshly loaded one, translating terms through each
// store's own dictionary (the mutated dictionary retains terms of
// deleted triples; the fresh one never saw them).
func assertSameReadSurface(t *testing.T, mutated, fresh *Store, universe []rdf.Triple) {
	t.Helper()
	terms := make(map[rdf.Term]struct{})
	for _, u := range universe {
		terms[u.S] = struct{}{}
		terms[u.P] = struct{}{}
		terms[u.O] = struct{}{}
	}
	lookup := func(st *Store, tm rdf.Term) rdf.ID {
		id, ok := st.Dict().Lookup(tm)
		if !ok {
			return rdf.NoID
		}
		return id
	}
	matchSet := func(st *Store, s, p, o rdf.Term) []rdf.Triple {
		sid, pid, oid := lookup(st, s), lookup(st, p), lookup(st, o)
		// An unknown constant can never match (NoID from a named term
		// means the store never interned it).
		if (s != rdf.Term{} && sid == rdf.NoID) || (p != rdf.Term{} && pid == rdf.NoID) || (o != rdf.Term{} && oid == rdf.NoID) {
			return nil
		}
		var out []rdf.Triple
		st.Snapshot().Match(sid, pid, oid, func(e rdf.EncodedTriple) bool {
			out = append(out, st.Dict().Decode(e))
			return true
		})
		sort.Slice(out, func(i, j int) bool { return tripleLess(out[i], out[j]) })
		return out
	}
	var zero rdf.Term
	patterns := [][3]rdf.Term{{zero, zero, zero}}
	for tm := range terms {
		patterns = append(patterns,
			[3]rdf.Term{tm, zero, zero},
			[3]rdf.Term{zero, tm, zero},
			[3]rdf.Term{zero, zero, tm})
	}
	for _, u := range universe {
		patterns = append(patterns,
			[3]rdf.Term{u.S, u.P, zero},
			[3]rdf.Term{u.S, zero, u.O},
			[3]rdf.Term{zero, u.P, u.O},
			[3]rdf.Term{u.S, u.P, u.O})
	}
	for _, pat := range patterns {
		got := matchSet(mutated, pat[0], pat[1], pat[2])
		want := matchSet(fresh, pat[0], pat[1], pat[2])
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("Match(%v) diverged:\n got %v\nwant %v", pat, got, want)
		}
		gotN := cardOf(mutated, pat, lookup)
		wantN := cardOf(fresh, pat, lookup)
		if gotN != wantN || gotN != len(want) {
			t.Fatalf("CardMatch(%v) = %d (mutated) vs %d (fresh), match set has %d", pat, gotN, wantN, len(want))
		}
	}

	// Predicate indexes per node.
	for tm := range terms {
		gp := decodedIDs(mutated, mutated.Snapshot().PredicatesOf(lookup(mutated, tm)))
		fp := decodedIDs(fresh, fresh.Snapshot().PredicatesOf(lookup(fresh, tm)))
		if !reflect.DeepEqual(gp, fp) && !(len(gp) == 0 && len(fp) == 0) {
			t.Fatalf("PredicatesOf(%v) diverged: got %v want %v", tm, gp, fp)
		}
		gi := decodedIDs(mutated, mutated.Snapshot().PredicatesInto(lookup(mutated, tm)))
		fi := decodedIDs(fresh, fresh.Snapshot().PredicatesInto(lookup(fresh, tm)))
		if !reflect.DeepEqual(gi, fi) && !(len(gi) == 0 && len(fi) == 0) {
			t.Fatalf("PredicatesInto(%v) diverged: got %v want %v", tm, gi, fi)
		}
	}
}

func cardOf(st *Store, pat [3]rdf.Term, lookup func(*Store, rdf.Term) rdf.ID) int {
	var zero rdf.Term
	ids := [3]rdf.ID{}
	for i, tm := range pat {
		if tm == zero {
			ids[i] = rdf.NoID
			continue
		}
		ids[i] = lookup(st, tm)
		if ids[i] == rdf.NoID {
			return 0
		}
	}
	return st.Snapshot().CardMatch(ids[0], ids[1], ids[2])
}

func decodedIDs(st *Store, ids []rdf.ID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, st.Dict().Term(id).Value)
	}
	sort.Strings(out)
	return out
}

func tripleLess(a, b rdf.Triple) bool {
	if a.S != b.S {
		return a.S.Value < b.S.Value
	}
	if a.P != b.P {
		return a.P.Value < b.P.Value
	}
	return a.O.Value < b.O.Value
}

// TestApplyDeleteOracle is the main differential run: many seeds, many
// deltas per seed, random op mixes heavy enough to cross the fold and
// compaction thresholds repeatedly.
func TestApplyDeleteOracle(t *testing.T) {
	universe := oracleUniverse()
	seeds := 12
	deltas := 25
	if testing.Short() {
		seeds, deltas = 4, 10
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		st := New(0)
		model := newOracleModel()
		for d := 0; d < deltas; d++ {
			nOps := 1 + rng.Intn(12)
			ops := make([]rdf.TripleOp, 0, nOps)
			for i := 0; i < nOps; i++ {
				tr := universe[rng.Intn(len(universe))]
				if rng.Intn(100) < 45 {
					ops = append(ops, rdf.Delete(tr))
				} else {
					ops = append(ops, rdf.Insert(tr))
				}
			}
			effective := 0
			before := make(map[rdf.Triple]bool, len(model.seen))
			for k := range model.seen {
				before[k] = true
			}
			for _, op := range ops {
				if model.apply(op) {
					effective++
				}
			}
			genBefore := st.Generation()
			res, err := st.Apply(DeltaOf(ops...))
			if err != nil {
				t.Fatalf("seed %d delta %d: Apply: %v", seed, d, err)
			}
			if res.From != genBefore {
				t.Fatalf("seed %d delta %d: From = %d, generation was %d", seed, d, res.From, genBefore)
			}
			if res.To-res.From != uint64(effective) {
				t.Fatalf("seed %d delta %d: generation advanced %d, %d ops were effective", seed, d, res.To-res.From, effective)
			}
			assertNetAgainstModel(t, st, res, before, model.seen)
			// Full read-surface check every few deltas (it is quadratic in
			// the universe), membership-only in between.
			if d%5 == 4 || d == deltas-1 {
				assertStoreMatchesModel(t, st, model, universe)
			} else if st.Len() != len(model.seen) {
				t.Fatalf("seed %d delta %d: Len = %d, model %d", seed, d, st.Len(), len(model.seen))
			}
		}
	}
}

// TestApplyOverlayDeleteOracle is the differential run for deletes that
// hit every layer at once. Each seed fills the sorted delta past tailMax
// and the unsorted tail behind it; every later delta then deletes, in one
// Apply, several triples of each sorted run (its first two and last two
// rows, in each run's own order, and some between), tail rows (the first,
// the last and others), base rows, a triple it deletes and re-inserts and
// one it inserts and deletes, beside a few inserts (in the third delta
// enough to fold the tail into the sorted runs). Every read surface is
// checked against the model after each delta.
func TestApplyOverlayDeleteOracle(t *testing.T) {
	seeds, deltas := 4, 8
	if testing.Short() {
		seeds, deltas = 2, 5
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(2000 + seed)))
		var universe []rdf.Triple
		for _, i := range rng.Perm(24 * 4 * 24)[:700] {
			universe = append(universe, mkTriple(fmt.Sprintf("s%d", i/96), fmt.Sprintf("p%d", i/24%4), fmt.Sprintf("o%d", i%24)))
		}
		st := New(0)
		model := newOracleModel()
		apply := func(ops []rdf.TripleOp) ApplyResult {
			t.Helper()
			before := make(map[rdf.Triple]bool, len(model.seen))
			for k := range model.seen {
				before[k] = true
			}
			effective := 0
			for _, op := range ops {
				if model.apply(op) {
					effective++
				}
			}
			res, err := st.Apply(DeltaOf(ops...))
			if err != nil {
				t.Fatalf("seed %d: Apply: %v", seed, err)
			}
			if res.To-res.From != uint64(effective) {
				t.Fatalf("seed %d: generation advanced %d, %d ops were effective", seed, res.To-res.From, effective)
			}
			assertNetAgainstModel(t, st, res, before, model.seen)
			return res
		}
		inserts := func(ts []rdf.Triple) []rdf.TripleOp {
			ops := make([]rdf.TripleOp, len(ts))
			for i, tr := range ts {
				ops[i] = rdf.Insert(tr)
			}
			return ops
		}
		if _, err := st.Load(universe[:150]); err != nil {
			t.Fatal(err)
		}
		for _, tr := range universe[:150] {
			model.apply(rdf.Insert(tr))
		}
		apply(inserts(universe[150:450])) // past tailMax: the sorted delta
		for i := 450; i < 550; i += 20 {  // small deltas: the tail
			apply(inserts(universe[i : i+20]))
		}

		for d := 0; d < deltas; d++ {
			snap := st.Snapshot()
			if len(snap.deltaSPO) < 8 || len(snap.tail) < 4 || snap.base.n == 0 {
				t.Fatalf("seed %d delta %d: layers not populated: delta=%d tail=%d base=%d",
					seed, d, len(snap.deltaSPO), len(snap.tail), snap.base.n)
			}
			dead := make(map[rdf.EncodedTriple]bool)
			for _, run := range [][]rdf.EncodedTriple{snap.deltaSPO, snap.deltaPOS, snap.deltaOSP} {
				n := len(run)
				for _, i := range []int{0, 1, n - 2, n - 1, rng.Intn(n), rng.Intn(n)} {
					dead[run[i]] = true
				}
			}
			n := len(snap.tail)
			for _, i := range []int{0, n - 1, rng.Intn(n)} {
				dead[snap.tail[i]] = true
			}
			var baseLive []rdf.EncodedTriple
			snap.Scan(0, 0, func(e rdf.EncodedTriple) bool {
				if snap.base.containsID(e.S, e.P, e.O) && !snap.tombstoned(e) {
					baseLive = append(baseLive, e)
				}
				return true
			})
			for i := 0; i < 3 && len(baseLive) > 0; i++ {
				dead[baseLive[rng.Intn(len(baseLive))]] = true
			}
			var ops []rdf.TripleOp
			for e := range dead {
				ops = append(ops, rdf.Delete(st.Dict().Decode(e)))
			}
			sort.Slice(ops, func(i, j int) bool { return tripleLess(ops[i].Triple, ops[j].Triple) })
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
			// A sorted-delta row and a tail row deleted and re-inserted, an
			// absent triple inserted and deleted, and some absent triples
			// inserted: ten, or in the third delta enough to fold the tail.
			for _, e := range []rdf.EncodedTriple{snap.deltaSPO[len(snap.deltaSPO)/2], snap.tail[n/2]} {
				if tr := st.Dict().Decode(e); !dead[e] {
					ops = append(ops, rdf.Delete(tr), rdf.Insert(tr))
				}
			}
			var absent []rdf.Triple
			for _, tr := range universe {
				if !model.seen[tr] {
					absent = append(absent, tr)
				}
			}
			rng.Shuffle(len(absent), func(i, j int) { absent[i], absent[j] = absent[j], absent[i] })
			ops = append(ops, rdf.Insert(absent[0]), rdf.Delete(absent[0]))
			k := min(10, len(absent)-1)
			if d == 2 {
				k = min(tailMax, len(absent)-1)
			}
			ops = append(ops, inserts(absent[1:1+k])...)

			res := apply(ops)
			if res.Deleted != len(dead) {
				t.Fatalf("seed %d delta %d: %d net deletes, %d triples were marked dead", seed, d, res.Deleted, len(dead))
			}
			assertStoreMatchesModel(t, st, model, universe)
			if folded := len(st.Snapshot().tail) == 0; folded != (d == 2) {
				t.Fatalf("seed %d delta %d: tail folded = %v", seed, d, folded)
			}
			if d == 2 { // refill the tail the fold emptied
				var refill []rdf.Triple
				for _, tr := range universe {
					if !model.seen[tr] && len(refill) < 20 {
						refill = append(refill, tr)
					}
				}
				apply(inserts(refill))
			}
		}
	}
}

// assertNetAgainstModel checks the reported net membership changes
// against the model's before/after sets: exactly the triples whose
// membership differs, each once.
func assertNetAgainstModel(t *testing.T, st *Store, res ApplyResult, before, after map[rdf.Triple]bool) {
	t.Helper()
	check := func(name string, got []rdf.EncodedTriple, from, to map[rdf.Triple]bool) {
		want := 0
		for k := range to {
			if !from[k] {
				want++
			}
		}
		seen := make(map[rdf.Triple]bool, len(got))
		for _, e := range got {
			tr := st.Dict().Decode(e)
			if from[tr] || !to[tr] || seen[tr] {
				t.Fatalf("%s holds %v, which is not a net change (or is listed twice)", name, tr)
			}
			seen[tr] = true
		}
		if len(got) != want {
			t.Fatalf("%s has %d entries, the model diff has %d", name, len(got), want)
		}
	}
	check("NetInserts", res.NetInserts, before, after)
	check("NetDeletes", res.NetDeletes, after, before)
	if res.Inserted != len(res.NetInserts) || res.Deleted != len(res.NetDeletes) {
		t.Fatalf("counters disagree with slices: %d/%d vs %d/%d",
			res.Inserted, res.Deleted, len(res.NetInserts), len(res.NetDeletes))
	}
}

// TestScanPagingAcrossLayers is the paging property on a snapshot that
// has every layer at once: a columnar base, a sorted delta, an unsorted
// tail, tombstones, and a tombstoned row re-inserted through the overlay.
func TestScanPagingAcrossLayers(t *testing.T) {
	st := New(0)
	model := newOracleModel()
	apply := func(ops ...rdf.TripleOp) {
		t.Helper()
		for _, op := range ops {
			model.apply(op)
		}
		if _, err := st.Apply(DeltaOf(ops...)); err != nil {
			t.Fatal(err)
		}
	}
	corpus := ingestCorpus(2 * tailMax)
	base := corpus[:tailMax]
	if _, err := st.Load(base); err != nil {
		t.Fatal(err)
	}
	for _, tr := range base {
		model.apply(rdf.Insert(tr))
	}
	var bulk []rdf.TripleOp
	for i := 0; i < tailMax; i++ { // one delta past tailMax: lands in the sorted delta
		bulk = append(bulk, rdf.Insert(mkTriple(fmt.Sprintf("d%d", i), "p", "x")))
	}
	apply(bulk...)
	for i := 0; i < 5; i++ { // small deltas: ride the tail
		apply(rdf.Insert(mkTriple(fmt.Sprintf("t%d", i), "p", "x")))
	}
	// Tombstones at the first and last base rows and in between, one
	// overlay delete from each overlay layer, one tombstoned row back in.
	first, last := scanPages(st.Snapshot(), 0)[0], st.Snapshot().base.n-1
	var lastRow rdf.EncodedTriple
	st.Snapshot().Scan(last, 1, func(e rdf.EncodedTriple) bool { lastRow = e; return true })
	apply(rdf.Delete(st.Dict().Decode(first)), rdf.Delete(st.Dict().Decode(lastRow)),
		rdf.Delete(base[10]), rdf.Delete(base[11]), rdf.Delete(base[100]))
	apply(rdf.Delete(mkTriple("d7", "p", "x")), rdf.Delete(mkTriple("t2", "p", "x")))
	apply(rdf.Insert(base[11]))

	snap := st.Snapshot()
	if snap.base.n == 0 || len(snap.deltaSPO) == 0 || len(snap.tail) == 0 || len(snap.delSPO) != 5 {
		t.Fatalf("layers not all populated: base=%d delta=%d tail=%d tombstones=%d",
			snap.base.n, len(snap.deltaSPO), len(snap.tail), len(snap.delSPO))
	}
	assertScanPartitions(t, snap, model)
}

// deleteAllocBytes measures the bytes one base-resident single-triple
// delete allocates on a bulk-loaded store of n triples, averaged over
// distinct victims.
func deleteAllocBytes(t *testing.T, n int) float64 {
	t.Helper()
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = mkTriple(fmt.Sprintf("s%d", i/8), fmt.Sprintf("p%d", i%8), fmt.Sprintf("o%d", i%1000))
	}
	st := New(0)
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	deltas := make([]Delta, runs)
	for i := range deltas {
		deltas[i] = DeltaOf(rdf.Delete(ts[(i+1)*n/(runs+1)]))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for _, d := range deltas {
		if res, err := st.Apply(d); err != nil || res.Deleted != 1 {
			t.Fatalf("delete: %+v, %v", res, err)
		}
	}
	runtime.ReadMemStats(&ms)
	if got := len(st.Snapshot().delSPO); got != runs {
		t.Fatalf("%d tombstones after %d base-resident deletes", got, runs)
	}
	return float64(ms.TotalAlloc-before) / runs
}

// TestDeleteCostIndependentOfStoreSize: a one-triple delete pays for the
// overlay and the tombstone arrays, never for the store, so the bytes it
// allocates do not grow with the number of triples (allocation, not wall
// time: it is exact and does not depend on the machine).
func TestDeleteCostIndependentOfStoreSize(t *testing.T) {
	small, large := deleteAllocBytes(t, 20_000), deleteAllocBytes(t, 200_000)
	if large > 2*small {
		t.Fatalf("one delete allocates %.0f B on 200k triples vs %.0f B on 20k: the cost scales with the store", large, small)
	}
}

// tailDeleteTime is the least wall time, over runs tries, of one
// tail-resident delete (the triple the previous insert put in the tail)
// on st.
func tailDeleteTime(t *testing.T, st *Store, runs int) time.Duration {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < runs; i++ {
		tr := mkTriple("victim", "p", fmt.Sprintf("v%d", i))
		if _, err := st.Add(tr); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := st.Apply(DeltaOf(rdf.Delete(tr)))
		best = min(best, time.Since(start))
		if err != nil || res.Deleted != 1 {
			t.Fatalf("delete: %+v, %v", res, err)
		}
	}
	return best
}

// TestDeleteCostIndependentOfOverlaySize: deleting a triple the overlay
// holds costs binary searches in the sorted delta runs and a pass over
// the bounded tail, not a pass over the runs, so the fastest of several
// such deletes at an overlay of 40 000 triples is within 5x of the
// fastest at 2 000 (a per-row scan of the runs reads about 20x). The
// base is large enough that neither overlay folds.
func TestDeleteCostIndependentOfOverlaySize(t *testing.T) {
	const baseN = 330_000 // maxDelta = baseN/8 > 40 000
	ts := make([]rdf.Triple, baseN)
	for i := range ts {
		ts[i] = mkTriple(fmt.Sprintf("s%d", i/8), fmt.Sprintf("p%d", i%8), fmt.Sprintf("o%d", i%1000))
	}
	st := New(0)
	if _, err := st.Load(ts); err != nil {
		t.Fatal(err)
	}
	grow := func(from, to int) {
		var d Delta
		for i := from; i < to; i++ {
			d.Insert(mkTriple(fmt.Sprintf("d%d", i), "p", "x"))
		}
		if _, err := st.Apply(d); err != nil {
			t.Fatal(err)
		}
	}
	grow(0, 2_000)
	small := tailDeleteTime(t, st, 30)
	grow(2_000, 40_000)
	if n := len(st.Snapshot().deltaSPO); n != 40_000 {
		t.Fatalf("sorted delta holds %d triples, want 40 000 (a fold ran)", n)
	}
	large := tailDeleteTime(t, st, 30)
	t.Logf("fastest tail-resident delete: %v at an overlay of 2 000, %v at 40 000", small, large)
	if large > 5*small {
		t.Fatalf("a tail-resident delete takes %v at an overlay of 40 000 vs %v at 2 000: the cost scales with the overlay", large, small)
	}
}

// TestApplyEdgeCases pins the intra-delta ordering semantics directly.
func TestApplyEdgeCases(t *testing.T) {
	a, b := mkTriple("ea", "p", "x"), mkTriple("eb", "p", "x")

	t.Run("empty delta", func(t *testing.T) {
		st := New(0)
		res, err := st.Apply(Delta{})
		if err != nil || res.Changed() {
			t.Fatalf("empty delta: res=%+v err=%v", res, err)
		}
	})

	t.Run("insert then delete is transient", func(t *testing.T) {
		st := New(0)
		var d Delta
		d.Insert(a)
		d.Delete(a)
		res, err := st.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.To-res.From != 2 {
			t.Fatalf("two effective ops expected, generation moved %d", res.To-res.From)
		}
		if res.Inserted != 0 || res.Deleted != 0 || st.Len() != 0 {
			t.Fatalf("transient triple leaked: %+v len=%d", res, st.Len())
		}
		if st.Snapshot().ContainsTriple(a) {
			t.Fatal("transient triple still visible")
		}
	})

	t.Run("delete then reinsert is a membership no-op", func(t *testing.T) {
		st := New(0)
		if _, err := st.Load([]rdf.Triple{a, b}); err != nil {
			t.Fatal(err)
		}
		var d Delta
		d.Delete(a)
		d.Insert(a)
		res, err := st.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.To-res.From != 2 {
			t.Fatalf("two effective ops expected, generation moved %d", res.To-res.From)
		}
		if res.Inserted != 0 || res.Deleted != 0 || len(res.NetInserts) != 0 || len(res.NetDeletes) != 0 {
			t.Fatalf("membership did not change, yet the result reports net changes: %+v", res)
		}
		if snap := st.Snapshot(); !snap.ContainsTriple(a) || !snap.ContainsTriple(b) || snap.Len() != 2 {
			t.Fatalf("store changed: len=%d", st.Len())
		}
	})

	t.Run("delete of absent and insert of present are no-ops", func(t *testing.T) {
		st := New(0)
		if _, err := st.Load([]rdf.Triple{a}); err != nil {
			t.Fatal(err)
		}
		gen := st.Generation()
		var d Delta
		d.Delete(b)
		d.Insert(a)
		res, err := st.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Changed() || st.Generation() != gen {
			t.Fatalf("no-op delta changed the store: %+v", res)
		}
	})

	t.Run("invalid triple rejects whole delta", func(t *testing.T) {
		st := New(0)
		bad := rdf.Triple{S: rdf.NewLiteral("x"), P: iri("p"), O: iri("o")}
		var d Delta
		d.Insert(a)
		d.Op(rdf.Insert(bad))
		if _, err := st.Apply(d); err == nil {
			t.Fatal("invalid op accepted")
		}
		if st.Len() != 0 {
			t.Fatal("partial delta applied")
		}
	})
}

// TestApplySnapshotReadersUnaffected: a reader holding the pre-delta
// snapshot keeps seeing the old state after deletes land.
func TestApplySnapshotReadersUnaffected(t *testing.T) {
	st := New(0)
	a, b := mkTriple("ra", "p", "x"), mkTriple("rb", "p", "x")
	if _, err := st.Load([]rdf.Triple{a, b}); err != nil {
		t.Fatal(err)
	}
	old := st.Snapshot()
	var d Delta
	d.Delete(a)
	if _, err := st.Apply(d); err != nil {
		t.Fatal(err)
	}
	if !old.ContainsTriple(a) || old.Len() != 2 {
		t.Fatal("pinned snapshot observed the delete")
	}
	if st.Snapshot().ContainsTriple(a) || st.Len() != 1 {
		t.Fatal("live store missed the delete")
	}
}

// TestApplyCarriesBeforePublish: Apply runs its carries in order on an
// effective write, each inside the previous one's publish, with the
// successor snapshot while readers still see the old generation; the
// write is visible once the last carry publishes, a no-op delta runs no
// carry, and a carry that never calls publish panics and publishes nothing.
func TestApplyCarriesBeforePublish(t *testing.T) {
	st := New(0)
	a := mkTriple("ca", "p", "x")
	var steps []string
	carry := func(name string) Carry {
		return func(res ApplyResult, next *Snapshot, publish func()) {
			if st.Generation() != res.From || next.Generation() != res.To || !next.ContainsTriple(a) {
				t.Errorf("%s: store at %d, next at %d, before publication of %d → %d", name, st.Generation(), next.Generation(), res.From, res.To)
			}
			steps = append(steps, name)
			publish()
			steps = append(steps, fmt.Sprintf("%s published %v", name, st.Generation() == res.To))
		}
	}
	if _, err := st.Apply(DeltaOf(rdf.Insert(a)), carry("outer"), carry("inner")); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "inner", "inner published true", "outer published true"}
	if !reflect.DeepEqual(steps, want) || !st.Snapshot().ContainsTriple(a) {
		t.Fatalf("steps %q, want %q", steps, want)
	}
	steps = nil
	if res, err := st.Apply(DeltaOf(rdf.Insert(a)), carry("no-op")); err != nil || res.Changed() || steps != nil {
		t.Fatalf("a no-op delta ran carries %q (res %+v, err %v)", steps, res, err)
	}
	gen, b := st.Generation(), mkTriple("cb", "p", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a carry that never called publish did not panic")
			}
		}()
		_, _ = st.Apply(DeltaOf(rdf.Insert(b)), func(ApplyResult, *Snapshot, func()) {})
	}()
	if st.Generation() != gen || st.Snapshot().ContainsTriple(b) {
		t.Fatal("a write whose carry never called publish was published")
	}
}
