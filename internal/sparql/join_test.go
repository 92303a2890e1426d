package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"elinda/internal/datagen"
	"elinda/internal/rdf"
	"elinda/internal/store"
)

// nestedLoopJoin is the join idJoin must reproduce row for row: every
// compatible pair, left-major, partners in right-row order, and for
// OPTIONAL an unmatched left row kept as is.
func nestedLoopJoin(left, right *idRows, optional bool) *idRows {
	out := newIDRows(left.w)
	merged := make([]rdf.ID, left.w)
	for i := 0; i < left.n; i++ {
		l := left.row(i)
		matched := false
		for j := 0; j < right.n; j++ {
			if r := right.row(j); idCompatible(l, r) {
				mergeInto(merged, l, r)
				out.push(merged)
				matched = true
			}
		}
		if optional && !matched {
			out.push(l)
		}
	}
	return out
}

// randJoinSide draws n rows of width w. Columns in always are bound in
// every row; the others are NoID about half the time. IDs come from a
// pool of four, so keys collide, and the pool's top ID sits in the
// overflow range, so both halves of a packed two-column key matter.
func randJoinSide(r *rand.Rand, w, n int, always []bool) *idRows {
	pool := []rdf.ID{1, 2, 3, overflowBase + 7}
	rows := newIDRows(w)
	row := make([]rdf.ID, w)
	for i := 0; i < n; i++ {
		for c := range row {
			row[c] = rdf.NoID
			if always[c] || r.Intn(2) == 0 {
				row[c] = pool[r.Intn(len(pool))]
			}
		}
		rows.push(row)
	}
	return rows
}

// TestIDJoinMatchesNestedLoop holds the keyed join to the nested loop it
// replaced, rows compared in order, over random row sets with NoID holes,
// zero, one, two and three or more always-bound columns, empty sides, a
// lone empty left row, and both modes.
func TestIDJoinMatchesNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	ctx := context.Background()
	keyLens := map[int]int{}
	for trial := 0; trial < 3000; trial++ {
		w := 1 + r.Intn(6)
		always := make([]bool, w)
		for _, c := range r.Perm(w)[:r.Intn(w+1)] {
			always[c] = true
		}
		left := randJoinSide(r, w, r.Intn(12), always)
		right := randJoinSide(r, w, r.Intn(12), always)
		if r.Intn(10) == 0 {
			left = newIDRows(w)
			left.push(make([]rdf.ID, w))
		}
		optional := r.Intn(2) == 0
		keyLens[len(joinKeyColumns(left, right))]++

		got, err := idJoin(ctx, left, right, optional)
		if err != nil {
			t.Fatal(err)
		}
		want := nestedLoopJoin(left, right, optional)
		if got.n != want.n || !slices.Equal(got.data, want.data) {
			t.Fatalf("trial %d (w=%d optional=%v key=%v):\nleft  %v\nright %v\ngot   %v\nwant  %v",
				trial, w, optional, joinKeyColumns(left, right), left.data, right.data, got.data, want.data)
		}
	}
	for k := 0; k <= 2; k++ {
		if keyLens[k] == 0 {
			t.Errorf("no trial joined on %d key columns: %v", k, keyLens)
		}
	}
}

// TestJoinIgnoresUnionBranchOrder is the regression for a join key
// sampled from each side's first row: UNION branches bind different
// variables, so the answer depended on which branch came first.
func TestJoinIgnoresUnionBranchOrder(t *testing.T) {
	st := store.New(8)
	if _, err := st.Load([]rdf.Triple{
		{S: ex("a"), P: ex("p"), O: ex("y1")},
		{S: ex("a"), P: ex("q"), O: ex("y1")},
		{S: ex("a"), P: ex("r"), O: ex("z")},
	}); err != nil {
		t.Fatal(err)
	}
	q := `PREFIX ex: <http://example.org/>
SELECT ?s ?y WHERE { ?s ex:p ?y . { %s } UNION { %s } }`
	qy, rz := `?s ex:q ?y`, `?s ex:r ?z`
	for _, src := range []string{fmt.Sprintf(q, qy, rz), fmt.Sprintf(q, rz, qy)} {
		res := runQ(t, NewEngine(st), src)
		if len(res.Rows) != 2 {
			t.Errorf("%d rows, want 2:\n%s", len(res.Rows), src)
		}
		want, err := newOracle(st).Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSolutions(res.Rows, want.Rows) {
			t.Errorf("engine %v, oracle %v:\n%s", res.Rows, want.Rows, src)
		}
	}
}

// tableQuery is the explorer's data-table query for a class pane with
// two columns: the pane's pattern plus one OPTIONAL per column.
func tableQuery(class, col1, col2 rdf.Term) string {
	return fmt.Sprintf(`SELECT ?s ?v1 ?v2 WHERE { ?s a %s . OPTIONAL { ?s %s ?v1 . } OPTIONAL { ?s %s ?v2 . } }`, class, col1, col2)
}

// TestTableQueryOrderUnchanged pins the data table's row order: the
// engine must return the rows in the order of the oracle's nested-loop
// left joins, which is the order every earlier build served.
func TestTableQueryOrderUnchanged(t *testing.T) {
	st, err := datagen.Generate(datagen.DefaultConfig()).NewStore()
	if err != nil {
		t.Fatal(err)
	}
	src := tableQuery(datagen.Ont("Philosopher"), datagen.Ont("influencedBy"), datagen.Ont("mainInterest"))
	got := runQ(t, NewEngine(st), src)
	want, err := newOracle(st).Query(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("engine %d rows, oracle %d", len(got.Rows), len(want.Rows))
	}
	unbound := 0
	for i := range got.Rows {
		if !sameSolutions(got.Rows[i:i+1], want.Rows[i:i+1]) {
			t.Fatalf("row %d: engine %v, oracle %v", i, got.Rows[i], want.Rows[i])
		}
		if len(got.Rows[i]) < 3 {
			unbound++
		}
	}
	if unbound == 0 || unbound == len(got.Rows) {
		t.Fatalf("fixture too weak: %d rows, %d with an unbound column", len(got.Rows), unbound)
	}
}
