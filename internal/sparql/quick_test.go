package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"elinda/internal/rdf"
	"elinda/internal/store"
)

// TestLexerNeverPanics feeds random byte strings to the lexer; it may
// reject them but must not panic (failure-injection robustness).
func TestLexerNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("lexer panicked on %q: %v", src, r)
			}
		}()
		lex(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestParserNeverPanics feeds semi-structured garbage to the full parser.
func TestParserNeverPanics(t *testing.T) {
	fragments := []string{
		"SELECT", "?s", "?p", "WHERE", "{", "}", "(", ")", "a", "owl:Thing",
		"FILTER", "OPTIONAL", "UNION", "GROUP", "BY", "COUNT", "AS", ".",
		";", ",", "<http://x>", `"lit"`, "42", "*", "=", "<", "LIMIT",
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		n := r.Intn(20)
		src := ""
		for j := 0; j < n; j++ {
			src += fragments[r.Intn(len(fragments))] + " "
		}
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("parser panicked on %q: %v", src, rec)
				}
			}()
			Parse(src)
		}()
	}
}

// referenceMatch is a brute-force single-pattern evaluator used as the
// ground truth for the engine's BGP evaluation.
func referenceMatch(triples []rdf.Triple, tp TriplePattern) []Solution {
	var out []Solution
	for _, tr := range triples {
		sol := Solution{}
		ok := true
		bind := func(tv TermOrVar, val rdf.Term) {
			if !ok {
				return
			}
			if tv.IsVar {
				if prev, bound := sol[tv.Name]; bound && prev != val {
					ok = false
					return
				}
				sol[tv.Name] = val
				return
			}
			if tv.Term != val {
				ok = false
			}
		}
		bind(tp.S, tr.S)
		bind(tp.P, tr.P)
		bind(tp.O, tr.O)
		if ok {
			out = append(out, sol)
		}
	}
	return out
}

// TestEngineMatchesReferenceSinglePattern fuzzes single-pattern queries
// against the brute-force evaluator.
func TestEngineMatchesReferenceSinglePattern(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		st := store.New(64)
		var triples []rdf.Triple
		for i := 0; i < 30+r.Intn(40); i++ {
			tr := rdf.Triple{
				S: ex(fmt.Sprintf("s%d", r.Intn(8))),
				P: ex(fmt.Sprintf("p%d", r.Intn(4))),
				O: ex(fmt.Sprintf("o%d", r.Intn(8))),
			}
			if st.Snapshot().ContainsTriple(tr) {
				continue
			}
			st.Add(tr)
			triples = append(triples, tr)
		}
		e := NewEngine(st)

		// Random pattern: each position is a var or a known constant.
		pos := func(varName, pool string, n int) TermOrVar {
			if r.Intn(2) == 0 {
				return V(varName)
			}
			return T(ex(fmt.Sprintf("%s%d", pool, r.Intn(n))))
		}
		tp := TriplePattern{S: pos("a", "s", 8), P: pos("b", "p", 4), O: pos("c", "o", 8)}
		// Possibly force a repeated variable (?a ?b ?a).
		if tp.S.IsVar && tp.O.IsVar && r.Intn(3) == 0 {
			tp.O = V(tp.S.Name)
		}

		q := &Query{
			Star:  true,
			Where: &GroupPattern{Triples: []TriplePattern{tp}},
			Limit: -1,
		}
		got, err := e.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceMatch(triples, tp)
		if !sameSolutions(got.Rows, want) {
			t.Fatalf("trial %d: engine disagrees with reference for %v\n got %v\nwant %v",
				trial, tp, got.Rows, want)
		}
	}
}

func sameSolutions(a, b []Solution) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(s Solution) string {
		var names []string
		for k := range s {
			names = append(names, k)
		}
		sort.Strings(names)
		out := ""
		for _, k := range names {
			out += k + "=" + s[k].String() + ";"
		}
		return out
	}
	ka := make([]string, len(a))
	kb := make([]string, len(b))
	for i := range a {
		ka[i] = key(a[i])
	}
	for i := range b {
		kb[i] = key(b[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

// TestValueCoercionProperties checks algebraic properties of the Value
// coercions with testing/quick.
func TestValueCoercionProperties(t *testing.T) {
	// Numeric literals round-trip through AsNumber.
	f := func(n int32) bool {
		v := TermValue(rdf.NewTypedLiteral(fmt.Sprint(n), rdf.XSDInteger))
		got, ok := v.AsNumber()
		return ok && got == float64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Comparison is antisymmetric on numbers.
	g := func(a, b int16) bool {
		va, vb := NumValue(float64(a)), NumValue(float64(b))
		c1, ok1 := compareValues(va, vb)
		c2, ok2 := compareValues(vb, va)
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// EBV of the boolean literal matches its lexical form.
	for _, lex := range []string{"true", "false", "1", "0"} {
		v := TermValue(rdf.NewTypedLiteral(lex, rdf.XSDBoolean))
		got, ok := v.AsBool()
		want := lex == "true" || lex == "1"
		if !ok || got != want {
			t.Errorf("EBV(%q) = (%v,%v)", lex, got, ok)
		}
	}
}
