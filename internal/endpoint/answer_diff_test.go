package endpoint

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
	"elinda/internal/store"
)

// This file is the byte-identity differential of the answer path: the
// engine's ID-row table, encoded in each format, against the reference
// encoders of json_oracle_test.go and formats_test.go over Execute's
// Result; and that Result against a derivation that does not go through
// the table's own ORDER BY, OFFSET/LIMIT or duplicate-name handling.

// diffStore builds a random store over small pools whose terms cover
// every encoding branch (IRIs, blank nodes, plain, language-tagged and
// typed literals, characters that need escaping), passed through the
// overlay states a reader can meet: a bulk-loaded base, single Adds, a
// delete set (tombstones) and, in half the stores, a fold of the overlay
// into a new base.
func diffStore(r *rand.Rand) *store.Store {
	objects := []rdf.Term{
		ex("o0"), ex("o1"), ex("o2"), rdf.NewBlank("b0"),
		rdf.NewLiteral("tab\tand \"quote\" <&>"), rdf.NewLangLiteral("Zeno", "en"),
		rdf.NewTypedLiteral("7", rdf.XSDInteger), rdf.NewTypedLiteral("10", rdf.XSDInteger),
	}
	gen := func() rdf.Triple {
		o := objects[r.Intn(len(objects))]
		if r.Intn(3) == 0 {
			o = ex(fmt.Sprintf("s%d", r.Intn(8)))
		}
		return rdf.Triple{S: ex(fmt.Sprintf("s%d", r.Intn(8))), P: ex(fmt.Sprintf("p%d", r.Intn(3))), O: o}
	}
	st := store.New(128)
	base := make([]rdf.Triple, 40+r.Intn(40))
	for i := range base {
		base[i] = gen()
	}
	if _, err := st.Load(base); err != nil {
		panic(err)
	}
	var fill store.Delta
	if r.Intn(2) == 0 {
		for i := 0; i < 1100; i++ {
			fill.Insert(rdf.Triple{S: ex(fmt.Sprintf("f%d", i)), P: ex("fill"), O: ex("g")})
		}
		mustApply(st, fill) // the delta outgrows its bound: a fold
	}
	for i := 0; i < 30; i++ {
		if _, err := st.Add(gen()); err != nil {
			panic(err)
		}
	}
	var del store.Delta
	for i := 0; i < 10; i++ {
		del.Delete(base[r.Intn(len(base))])
	}
	for _, op := range fill.Ops() {
		del.Delete(op.Triple)
	}
	mustApply(st, del)
	return st
}

func mustApply(st *store.Store, d store.Delta) {
	if _, err := st.Apply(d); err != nil {
		panic(err)
	}
}

// diffQueryText builds a random query: BGPs with VALUES (UNDEF and terms
// outside the store), OPTIONAL (unbound cells), FILTER, expression
// outputs outside the store, duplicate projection names, DISTINCT,
// GROUP BY, ORDER BY keys with many ties, OFFSET/LIMIT in both the top-k
// and the full-sort range, and ASK.
func diffQueryText(r *rand.Rand) string {
	v := func() string { return "?" + string(rune('a'+r.Intn(4))) }
	pos := func(pool string, n int) string {
		if r.Intn(2) == 0 {
			return v()
		}
		return fmt.Sprintf("<http://example.org/%s%d>", pool, r.Intn(n))
	}
	var where strings.Builder
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		fmt.Fprintf(&where, "%s %s %s . ", v(), pos("p", 3), v())
	}
	if r.Intn(3) == 0 {
		fmt.Fprintf(&where, "VALUES %s { <http://example.org/s1> UNDEF <http://example.org/values-only> \"lit\"@de } ", v())
	}
	if r.Intn(2) == 0 {
		fmt.Fprintf(&where, "OPTIONAL { %s %s %s . } ", v(), pos("p", 3), v())
	}
	if r.Intn(4) == 0 {
		fmt.Fprintf(&where, "FILTER(BOUND(%s)) ", v())
	}
	body := "WHERE { " + where.String() + "}"
	if r.Intn(8) == 0 {
		return "ASK " + body
	}
	var sel []string
	grouped, dup := false, false
	switch r.Intn(6) {
	case 0:
		sel = []string{"*"}
	case 1:
		g := v()
		sel = []string{g, "(COUNT(*) AS ?n)"}
		body += " GROUP BY " + g
		grouped = true
	case 2:
		x, y := v(), v()
		sel = []string{x, "(" + y + " AS " + x + ")", v()}
		dup = true
	default:
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			sel = append(sel, v())
		}
		if r.Intn(2) == 0 {
			sel = append(sel, "(STR("+v()+") AS ?str)")
		}
	}
	distinct := ""
	if r.Intn(3) == 0 || dup && r.Intn(2) == 0 {
		distinct = "DISTINCT "
	}
	if r.Intn(3) != 0 {
		key := v()
		if grouped {
			key = "?n"
		}
		body += " ORDER BY " + []string{key, "DESC(" + key + ")", "(STR(" + key + "))"}[r.Intn(3)]
		if r.Intn(2) == 0 {
			body += " " + v()
		}
	}
	switch r.Intn(4) {
	case 0:
		body += fmt.Sprintf(" LIMIT %d", r.Intn(20))
	case 1:
		body += fmt.Sprintf(" OFFSET %d LIMIT %d", r.Intn(10), r.Intn(30))
	case 2:
		body += fmt.Sprintf(" OFFSET %d", r.Intn(5000)) // past the top-k range
	}
	return "SELECT " + distinct + strings.Join(sel, " ") + " " + body
}

// derivedRows is Execute's answer to q derived around the table's own
// handling of solution modifiers and duplicate names: the query runs
// without ORDER BY, OFFSET and LIMIT and with its projection names made
// unique (and then without DISTINCT), the columns of a shared name are
// merged here (the last bound wins, as in a map per row), DISTINCT keeps
// the first of the merged rows that are equal, and sparql.OrderAndSlice
// orders and slices the maps with its stable sort or top-k heap.
func derivedRows(t *testing.T, eng *sparql.Engine, q *sparql.Query) []sparql.Solution {
	bare := *q
	bare.OrderBy, bare.Offset, bare.Limit = nil, 0, -1
	bare.Items = append([]sparql.SelectItem(nil), q.Items...)
	renamed := len(q.GroupBy) == 0 && !q.HasAggregates() && len(q.Items) > 0
	if renamed {
		bare.Distinct = false
		for j, it := range bare.Items {
			name := fmt.Sprintf("%s#%d", it.Var, j)
			if it.Expr == nil {
				it.Expr = &sparql.VarExpr{Name: it.Var}
			}
			bare.Items[j] = sparql.SelectItem{Var: name, Expr: it.Expr}
		}
	}
	res, err := eng.Execute(context.Background(), &bare)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows
	if renamed {
		rows = make([]sparql.Solution, len(res.Rows))
		for i, sol := range res.Rows {
			merged := sparql.Solution{}
			for j, it := range bare.Items {
				if term, ok := sol[it.Var]; ok {
					merged[q.Items[j].Var] = term
				}
			}
			rows[i] = merged
		}
	}
	if renamed && q.Distinct {
		seen := make(map[string]bool, len(rows))
		kept := rows[:0]
		for _, sol := range rows {
			var key strings.Builder
			for _, it := range q.Items {
				if term, ok := sol[it.Var]; ok {
					key.WriteString(term.String())
				}
				key.WriteByte(0)
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				kept = append(kept, sol)
			}
		}
		rows = kept
	}
	return sparql.OrderAndSlice(rows, q)
}

// referenceTSV is the TSV encoder before it read a table: each row's
// map rendered per variable with Term.String.
func referenceTSV(res *sparql.Result) []byte {
	if res.Ask {
		return fmt.Appendf(nil, "?boolean\n%v\n", res.AskTrue)
	}
	var b []byte
	for i, v := range res.Vars {
		if i > 0 {
			b = append(b, '\t')
		}
		b = append(append(b, '?'), v...)
	}
	b = append(b, '\n')
	for _, sol := range res.Rows {
		for i, v := range res.Vars {
			if i > 0 {
				b = append(b, '\t')
			}
			if t, ok := sol[v]; ok {
				b = append(b, t.String()...)
			}
		}
		b = append(b, '\n')
	}
	return b
}

// TestAnswerBytesMatchReference: for random queries over random stores,
// every format's body written from ExecuteTable's table equals the
// reference encoding of Execute's Result, also through the writer with a
// buffer of a few bytes, and that Result's rows are derivedRows'.
func TestAnswerBytesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ctx := context.Background()
	var ordered, dups, distinctDups, empty int
	for trial := 0; trial < 300; trial++ {
		eng := sparql.NewEngine(diffStore(r))
		for i := 0; i < 5; i++ {
			src := diffQueryText(r)
			q, err := sparql.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			tab, err := eng.ExecuteTable(ctx, q)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			res, err := eng.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			refs := map[string][]byte{
				ContentType:    oracleMarshalResult(res),
				ContentTypeTSV: referenceTSV(res),
				ContentTypeCSV: oracleMarshalCSV(t, res),
				ContentTypeXML: oracleMarshalXML(t, res),
			}
			for ct, want := range refs {
				got, err := encoders[ct](nil, tab, keepAll)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s\n%s:\n got  %q\n want %q", src, ct, got, want)
				}
			}
			rec := httptest.NewRecorder()
			a := &answerWriter{ctx: ctx, w: rec, limit: 7}
			body, err := encoders[ContentType](nil, tab, a.spill)
			if err == nil {
				err = a.finish(body)
			}
			if err != nil || !bytes.Equal(rec.Body.Bytes(), refs[ContentType]) {
				t.Fatalf("%s\nwriter of 7 bytes (%v):\n got  %s\n want %s", src, err, rec.Body.Bytes(), refs[ContentType])
			}
			if q.Ask {
				continue
			}
			if want := derivedRows(t, eng, q); !reflect.DeepEqual(res.Rows, want) && (len(res.Rows) > 0 || len(want) > 0) {
				t.Fatalf("%s\nrows\n got  %v\n want %v", src, res.Rows, want)
			}
			if len(q.OrderBy) > 0 && len(res.Rows) > 12 {
				ordered++
			}
			if len(res.Rows) > 0 && len(tab.Vars) > 1 && tab.Vars[0] == tab.Vars[1] {
				dups++
				if q.Distinct {
					distinctDups++
				}
			}
			if len(res.Rows) == 0 {
				empty++
			}
		}
	}
	if ordered < 50 || dups < 50 || distinctDups < 20 || empty < 10 {
		t.Fatalf("coverage: %d ordered answers over 12 rows, %d with a duplicate name (%d of them DISTINCT), %d empty",
			ordered, dups, distinctDups, empty)
	}
}
