package endpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// This file keeps the SPARQL JSON encoder the server used before the
// appenders in json.go: every row built as a map[string]jsonTerm and
// written by encoding/json. It is the reference the appenders must match
// byte for byte, and lives in a _test.go file so the server links one
// JSON writer.

func termToJSON(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.IRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.Blank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

func oracleRow(sol sparql.Solution) map[string]jsonTerm {
	m := make(map[string]jsonTerm, len(sol))
	for v, t := range sol {
		m[v] = termToJSON(t)
	}
	return m
}

// oracleMarshalResult is the reflection-based encoder.
func oracleMarshalResult(res *sparql.Result) []byte {
	doc := jsonResults{}
	if res.Ask {
		b := res.AskTrue
		doc.Boolean = &b
	} else {
		doc.Head.Vars = res.Vars
		bindings := make([]map[string]jsonTerm, 0, len(res.Rows))
		for _, row := range res.Rows {
			bindings = append(bindings, oracleRow(row))
		}
		doc.Results = &jsonBindings{Bindings: bindings}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(err) // jsonResults holds only strings: Marshal cannot fail
	}
	return out
}

// serveThrough sends res, through sparql.TableOf, in contentType through
// an answerWriter whose buffer holds limit bytes, as the server sends a
// fresh answer, and returns the recorded response.
func serveThrough(t testing.TB, res *sparql.Result, contentType string, limit int) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	a := &answerWriter{ctx: context.Background(), w: rec, limit: limit}
	body, err := encoders[contentType](nil, sparql.TableOf(res), a.spill)
	if err == nil {
		err = a.finish(body)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestJSONWriterMatchesOracle covers the document shapes around the rows:
// ASK, empty and duplicate vars, no rows, unbound cells, and rows that
// bind names outside Vars.
func TestJSONWriterMatchesOracle(t *testing.T) {
	lit := rdf.NewLangLiteral("Zeno <of> \"Elea\"", "en")
	for i, res := range []*sparql.Result{
		{Ask: true, AskTrue: true},
		{Ask: true},
		{},
		{Vars: []string{"s"}},
		{Vars: []string{"s", "o", "s"}, Rows: []sparql.Solution{{"s": ex("a"), "o": lit}, {"o": lit}, {}}},
		{Vars: []string{"z", "a"}, Rows: []sparql.Solution{{"a": ex("x"), "m": rdf.NewBlank("b0"), "z": rdf.NewTypedLiteral("1", rdf.XSDInteger)}}},
		{Rows: []sparql.Solution{{"only": ex("restored")}}},
		{Vars: []string{"é", "<v>", "\u2028"}, Rows: []sparql.Solution{{"é": lit, "<v>": ex("&"), "\u2028": rdf.NewLiteral("\x00\x7f\xff")}}},
	} {
		want := oracleMarshalResult(res)
		got, err := marshalJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d: marshalJSON\n got  %s\n want %s", i, got, want)
		}
		for _, limit := range []int{1, 16, BodyBytes} {
			if got := serveThrough(t, res, ContentType, limit).Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("case %d: writer of %d bytes\n got  %s\n want %s", i, limit, got, want)
			}
		}
	}
}

// decodedTerm is the term a reader of t's JSON gets back: IRIs and blank
// nodes carry no tags, and a literal's language tag wins over its
// datatype.
func decodedTerm(t rdf.Term) rdf.Term {
	switch {
	case t.Kind != rdf.Literal:
		return rdf.Term{Kind: t.Kind, Value: t.Value}
	case t.Lang != "":
		return rdf.NewLangLiteral(t.Value, t.Lang)
	case t.Datatype != "":
		return rdf.NewTypedLiteral(t.Value, t.Datatype)
	}
	return rdf.NewLiteral(t.Value)
}

// FuzzJSONRow holds the JSON encoder to the encoding/json oracle byte for
// byte on rows built from arbitrary strings: one bound var holding a term
// of any kind with any value, language tag and datatype, one var left
// unbound, and one binding outside the vars, which sparql.TableOf keeps
// as an extra column. A document of the row twice
// goes through the one writer with buffers of a few bytes, so the fuzzed
// bytes cross chunk boundaries. It checks that UnmarshalResult reads the
// row back. Its seeds are in testdata/fuzz/FuzzJSONRow.
func FuzzJSONRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, value, lang, datatype string, kind uint8, extra string) {
		term := rdf.Term{Kind: rdf.TermKind(kind % 3), Value: value, Lang: lang, Datatype: datatype}
		sol := sparql.Solution{name: term, extra + "~": rdf.NewLiteral(extra)}
		vars := []string{name, name + "~unbound"}

		row, err := json.Marshal(oracleRow(sol))
		if err != nil {
			t.Fatal(err)
		}
		res := &sparql.Result{Vars: vars, Rows: []sparql.Solution{sol}}
		body, err := marshalJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleMarshalResult(res); !bytes.Equal(body, want) || !bytes.Contains(body, row) {
			t.Fatalf("document\n got  %s\n want %s\n row  %s", body, want, row)
		}
		twice := &sparql.Result{Vars: vars, Rows: []sparql.Solution{sol, sol}}
		want := oracleMarshalResult(twice)
		for _, limit := range []int{1, 3 + len(value)%13, 64} {
			if got := serveThrough(t, twice, ContentType, limit).Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("writer of %d bytes\n got  %s\n want %s", limit, got, want)
			}
		}

		back, err := UnmarshalResult(body)
		if err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		for _, s := range []string{name, value, lang, datatype, extra} {
			if !utf8.ValidString(s) {
				return // encoding replaced a byte with U+FFFD by design
			}
		}
		decoded := sparql.Solution{}
		for k, v := range sol {
			decoded[k] = decodedTerm(v)
		}
		if !reflect.DeepEqual(back.Vars, vars) || len(back.Rows) != 1 || !reflect.DeepEqual(back.Rows[0], decoded) {
			t.Fatalf("read back %+v, want vars %q row %+v", back, vars, decoded)
		}
	})
}

// BenchmarkJSONWriter times encoding and sending one fresh answer through
// the one writer at two sizes (under and over BodyBytes), with rows of
// one IRI, one plain literal and one typed literal.
func BenchmarkJSONWriter(b *testing.B) {
	for _, n := range []int{100, 30000} {
		res := &sparql.Result{Vars: []string{"s", "label", "n"}}
		for i := 0; i < n; i++ {
			res.Rows = append(res.Rows, sparql.Solution{
				"s":     rdf.NewIRI(fmt.Sprintf("http://elinda.example/resource/Person_%d", i)),
				"label": rdf.NewLiteral(fmt.Sprintf("Person %d", i)),
				"n":     rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger),
			})
		}
		tab := sparql.TableOf(res)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				a := &answerWriter{ctx: context.Background(), w: discardResponse{}, limit: BodyBytes}
				body, err := appendJSON(nil, tab, a.spill)
				if err == nil {
					err = a.finish(body)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardResponse is a ResponseWriter that drops the body.
type discardResponse struct{}

func (discardResponse) Header() http.Header         { return http.Header{} }
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) WriteHeader(int)             {}
