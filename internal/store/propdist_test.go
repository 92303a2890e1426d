package store

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"elinda/internal/rdf"
)

// The property-distribution differential: the kernel against the
// per-triple walk it replaced (every triple of every member through a
// map), over randomized stores driven through every overlay state Apply
// can leave behind.

// oracleGroup is one property of the oracle's distribution: the counts
// PropertyCounts returns and the member list MembersWith returns.
type oracleGroup struct {
	PropertyGroup
	Members []rdf.ID
}

// oraclePropertyDistribution is the replaced walk.
func oraclePropertyDistribution(snap *Snapshot, set []rdf.ID, incoming bool) []oracleGroup {
	idx := map[rdf.ID]int{}
	var out []oracleGroup
	for _, node := range set {
		seen := map[rdf.ID]bool{}
		visit := func(e rdf.EncodedTriple) bool {
			i, ok := idx[e.P]
			if !ok {
				i = len(out)
				idx[e.P] = i
				out = append(out, oracleGroup{PropertyGroup: PropertyGroup{Property: e.P}})
			}
			g := &out[i]
			g.Triples++
			if !seen[e.P] {
				seen[e.P] = true
				g.Count++
				g.Members = append(g.Members, node)
			}
			return true
		}
		if incoming {
			snap.Match(rdf.NoID, rdf.NoID, node, visit)
		} else {
			snap.Match(node, rdf.NoID, rdf.NoID, visit)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Property < out[j].Property })
	return out
}

// distNodes is the node vocabulary of the differential: every node is
// both a subject and an object, so both directions see overlay traffic.
const distNodes, distPreds = 40, 6

func distTriple(r *rand.Rand) rdf.Triple {
	return mkTriple(fmt.Sprintf("n%d", r.Intn(distNodes)), fmt.Sprintf("p%d", r.Intn(distPreds)), fmt.Sprintf("n%d", r.Intn(distNodes)))
}

// distSets returns the sets every state is checked with: sorted,
// shuffled, with duplicates, with nodes the store does not hold (an ID
// never interned and a predicate's ID), empty and nil.
func distSets(r *rand.Rand, st *Store) map[string][]rdf.ID {
	var all []rdf.ID
	for i := 0; i < distNodes; i++ {
		if id, ok := st.Dict().Lookup(iri(fmt.Sprintf("n%d", i))); ok {
			all = append(all, id)
		}
	}
	slices.Sort(all)
	var half []rdf.ID
	for _, id := range all {
		if r.Intn(2) == 0 {
			half = append(half, id)
		}
	}
	shuffled := slices.Clone(half)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	pred, _ := st.Dict().Lookup(iri("p0"))
	absent := slices.Clone(half)
	absent = append(absent, pred, rdf.ID(1<<30))
	slices.Sort(absent)
	dups := slices.Clone(half)
	if len(dups) > 2 {
		dups = append(dups, dups[1], dups[len(dups)-1])
	}
	slices.Sort(dups)
	return map[string][]rdf.ID{
		"all":             all,
		"sorted":          half,
		"shuffled":        shuffled,
		"absent":          absent,
		"absent-unsorted": append([]rdf.ID{rdf.ID(1 << 30)}, shuffled...),
		"dups":            dups,
		"empty":           {},
		"nil":             nil,
	}
}

// assertDistMatchesOracle checks PropertyCounts and MembersWith on one
// snapshot against the oracle, for every set and both directions.
func assertDistMatchesOracle(t *testing.T, state string, r *rand.Rand, st *Store) {
	t.Helper()
	snap := st.Snapshot()
	for name, set := range distSets(r, st) {
		for _, incoming := range []bool{false, true} {
			what := fmt.Sprintf("%s, set %s, incoming=%v", state, name, incoming)
			want := oraclePropertyDistribution(snap, set, incoming)
			counts := snap.PropertyCounts(set, incoming)
			if len(counts) != len(want) {
				t.Fatalf("%s: %d groups, oracle %d", what, len(counts), len(want))
			}
			for i, w := range want {
				if counts[i] != w.PropertyGroup {
					t.Fatalf("%s: group %d = %+v, oracle %+v", what, i, counts[i], w.PropertyGroup)
				}
			}
			props := []rdf.ID{rdf.ID(1 << 30)}
			for i := 0; i < distPreds; i++ {
				if id, ok := st.Dict().Lookup(iri(fmt.Sprintf("p%d", i))); ok {
					props = append(props, id)
				}
			}
			for _, p := range props {
				var wantMembers []rdf.ID
				for _, g := range want {
					if g.Property == p {
						wantMembers = g.Members
					}
				}
				if m := snap.MembersWith(set, p, incoming); !slices.Equal(m, wantMembers) {
					t.Fatalf("%s: MembersWith(%d) = %v, oracle %v", what, p, m, wantMembers)
				}
			}
		}
	}
}

// TestPropertyDistributionDifferential scripts the overlay states one by
// one — clean base, tail only, sorted delta only, tombstones only,
// tombstones plus overlay, delete-then-reinsert, the state right after a
// fold — asserting each really is the state it names, then keeps going
// with random interleaved inserts and deletes, checking the kernel
// against the oracle after every Apply.
func TestPropertyDistributionDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		model := map[rdf.Triple]bool{}
		var base []rdf.Triple
		for len(base) < 600 {
			if tr := distTriple(r); !model[tr] {
				model[tr] = true
				base = append(base, tr)
			}
		}
		load := func() *Store {
			st := New(len(base))
			if _, err := st.Load(base); err != nil {
				t.Fatal(err)
			}
			return st
		}
		apply := func(st *Store, d Delta) {
			t.Helper()
			if _, err := st.Apply(d); err != nil {
				t.Fatal(err)
			}
			for _, op := range d.Ops() {
				model[op.Triple] = !op.Del
			}
		}
		absent := func(n int) []rdf.Triple {
			var out []rdf.Triple
			for seen := map[rdf.Triple]bool{}; len(out) < n; {
				if tr := distTriple(r); !model[tr] && !seen[tr] {
					seen[tr] = true
					out = append(out, tr)
				}
			}
			return out
		}
		state := func(st *Store, name string, ok func(s *Snapshot) bool) {
			t.Helper()
			if !ok(st.Snapshot()) {
				s := st.Snapshot()
				t.Fatalf("seed %d: not in state %q (tail %d, delta %d, tombstones %d)", seed, name, len(s.tail), len(s.deltaSPO), len(s.delSPO))
			}
			assertDistMatchesOracle(t, fmt.Sprintf("seed %d %s", seed, name), r, st)
		}

		// Tombstones only, on a store of its own.
		tomb := load()
		var d Delta
		apply(tomb, *d.Delete(base[:7]...))
		state(tomb, "tombstones only", func(s *Snapshot) bool { return s.overlayEmpty() && len(s.delSPO) == 7 })
		for _, tr := range base[:7] {
			model[tr] = true
		}

		st := load()
		state(st, "clean", func(s *Snapshot) bool { return s.overlayEmpty() && s.tombEmpty() })
		d = Delta{}
		apply(st, *d.Insert(absent(5)...))
		state(st, "tail only", func(s *Snapshot) bool { return len(s.tail) == 5 && len(s.deltaSPO) == 0 && s.tombEmpty() })
		d = Delta{}
		apply(st, *d.Insert(absent(tailMax)...))
		state(st, "delta only", func(s *Snapshot) bool { return len(s.tail) == 0 && len(s.deltaSPO) > 0 && s.tombEmpty() })
		deleted := base[10:20]
		d = Delta{}
		apply(st, *d.Delete(deleted...))
		state(st, "tombstones and delta", func(s *Snapshot) bool { return len(s.delSPO) == len(deleted) && len(s.deltaSPO) > 0 })
		d = Delta{}
		apply(st, *d.Insert(deleted[:4]...))
		state(st, "delete then reinsert", func(s *Snapshot) bool { return len(s.delSPO) == len(deleted) && len(s.tail) == 4 })
		before := st.Snapshot().base
		d = Delta{}
		apply(st, *d.Insert(absent(maxDelta(before))...))
		state(st, "after a fold", func(s *Snapshot) bool { return s.base != before && s.overlayEmpty() && s.tombEmpty() })

		// Random interleavings from here on.
		for step := 0; step < 40; step++ {
			d = Delta{}
			for k := 1 + r.Intn(6); k > 0; k-- {
				tr := distTriple(r)
				if model[tr] && r.Intn(2) == 0 {
					d.Delete(tr)
				} else {
					d.Insert(tr)
				}
			}
			apply(st, d)
			assertDistMatchesOracle(t, fmt.Sprintf("seed %d random step %d", seed, step), r, st)
		}
	}
}

// TestIntersectSorted pins the merge the subclass chart uses, and its
// count-only form: list order, absent and duplicate set entries, empty
// inputs.
func TestIntersectSorted(t *testing.T) {
	cases := []struct{ list, set, want []rdf.ID }{
		{[]rdf.ID{1, 3, 5, 7, 9}, []rdf.ID{2, 3, 4, 9, 10}, []rdf.ID{3, 9}},
		{[]rdf.ID{1, 2, 3}, []rdf.ID{1, 1, 2, 2, 3}, []rdf.ID{1, 2, 3}},
		{[]rdf.ID{4}, []rdf.ID{1, 2, 3}, nil},
		{nil, []rdf.ID{1}, nil},
		{[]rdf.ID{1}, nil, nil},
	}
	for _, c := range cases {
		if got := IntersectSorted(c.list, c.set); !slices.Equal(got, c.want) {
			t.Errorf("IntersectSorted(%v, %v) = %v, want %v", c.list, c.set, got, c.want)
		}
		if n := CountIntersectSorted(c.list, c.set); n != len(c.want) {
			t.Errorf("CountIntersectSorted(%v, %v) = %d, want %d", c.list, c.set, n, len(c.want))
		}
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var list, set []rdf.ID
		for i := rdf.ID(1); i < 300; i++ {
			if r.Intn(5) == 0 {
				list = append(list, i)
			}
			if r.Intn(1+trial%7) == 0 {
				set = append(set, i)
			}
		}
		var want []rdf.ID
		for _, x := range list {
			if _, ok := slices.BinarySearch(set, x); ok {
				want = append(want, x)
			}
		}
		if got := IntersectSorted(list, set); !slices.Equal(got, want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		if n := CountIntersectSorted(list, set); n != len(want) {
			t.Fatalf("trial %d: counted %d, want %d", trial, n, len(want))
		}
	}
}
