package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// genOrderRows builds random solutions over domains with a consistent
// total order (integers, IRIs, unbound): integer literals compare
// numerically among themselves and lexically against "http..." IRIs,
// with no mixed-chain intransitivity.
func genOrderRows(r *rand.Rand, n int) []Solution {
	rows := make([]Solution, n)
	for i := range rows {
		sol := Solution{}
		for _, v := range []string{"a", "b"} {
			switch r.Intn(4) {
			case 0: // unbound
			case 1:
				sol[v] = ex(fmt.Sprintf("o%d", r.Intn(6)))
			default:
				sol[v] = rdf.NewTypedLiteral(fmt.Sprint(r.Intn(20)), rdf.XSDInteger)
			}
		}
		// A distinct marker to tell equal-keyed rows apart in stability
		// checks.
		sol["id"] = rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)
		rows[i] = sol
	}
	return rows
}

func solKey(s Solution) string {
	return fmt.Sprint(s["a"], s["b"], s["id"])
}

// TestTopKMatchesFullSort is the equivalence property: for random rows,
// keys and k, the bounded heap must return exactly the stable-sort
// prefix — including tie order.
func TestTopKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		rows := genOrderRows(r, 1+r.Intn(60))
		var keys []OrderKey
		for i, v := range []string{"a", "b"} {
			if i == 0 || r.Intn(2) == 0 {
				keys = append(keys, OrderKey{Expr: &VarExpr{Name: v}, Desc: r.Intn(2) == 0})
			}
		}
		k := r.Intn(len(rows) + 3)

		full := append([]Solution(nil), rows...)
		sortRows(full, keys)
		want := full
		if k < len(want) {
			want = want[:k]
		}
		got := OrderAndSlice(append([]Solution(nil), rows...), &Query{OrderBy: keys, Limit: k})
		if len(got) != len(want) {
			t.Fatalf("trial %d: top-%d returned %d rows, want %d", trial, k, len(got), len(want))
		}
		for i := range got {
			if solKey(got[i]) != solKey(want[i]) {
				t.Fatalf("trial %d: top-%d row %d = %v, want %v (keys %v)", trial, k, i, got[i], want[i], keys)
			}
		}
	}
}

// TestOrderByLimitMatchesLegacy drives the heap path through the engine:
// ORDER BY + LIMIT/OFFSET queries must return the same rows in the same
// order on the streaming executor (bounded heap) and the legacy oracle
// (full stable sort).
func TestOrderByLimitMatchesLegacy(t *testing.T) {
	st := store.New(0)
	r := rand.New(rand.NewSource(5))
	perm := r.Perm(500)
	for i, v := range perm {
		st.Add(rdf.Triple{
			S: ex(fmt.Sprintf("s%d", i)),
			P: ex("val"),
			O: rdf.NewTypedLiteral(fmt.Sprint(v), rdf.XSDInteger),
		})
	}
	stream := NewEngine(st)
	legacy := newOracle(st)

	cases := []string{
		`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY ?v LIMIT 10`,
		`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY DESC(?v) LIMIT 7 OFFSET 3`,
		`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY ?v LIMIT 0`,
		`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY ?v LIMIT 1000`,
		`SELECT ?s ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY ?v OFFSET 495 LIMIT 10`,
		`SELECT ?v WHERE { ?s <http://example.org/val> ?v . } ORDER BY DESC(?v) LIMIT 1`,
	}
	for _, src := range cases {
		rs, err := stream.Query(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rl, err := legacy.Query(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(rs.Rows) != len(rl.Rows) {
			t.Fatalf("%s: %d rows vs legacy %d", src, len(rs.Rows), len(rl.Rows))
		}
		for i := range rs.Rows {
			if fmt.Sprint(rs.Rows[i]["v"]) != fmt.Sprint(rl.Rows[i]["v"]) {
				t.Fatalf("%s: row %d = %v, legacy %v", src, i, rs.Rows[i], rl.Rows[i])
			}
		}
	}
}
