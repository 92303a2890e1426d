package endpoint

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/xml"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

func sampleResult() *sparql.Result {
	return &sparql.Result{
		Vars: []string{"s", "v"},
		Rows: []sparql.Solution{
			{"s": ex("plato"), "v": rdf.NewLangLiteral("Plato", "en")},
			{"s": rdf.NewBlank("b0"), "v": rdf.NewTypedLiteral("7", rdf.XSDInteger)},
			{"s": ex("partial")},
		},
	}
}

func TestMarshalCSV(t *testing.T) {
	out, err := marshalCSV(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "s,v" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "http://example.org/plato") || !strings.Contains(lines[1], "Plato") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Unbound cell renders empty.
	if !strings.HasSuffix(lines[3], ",") {
		t.Errorf("unbound cell not empty: %q", lines[3])
	}
}

func TestMarshalCSVAsk(t *testing.T) {
	out, err := marshalCSV(&sparql.Result{Ask: true, AskTrue: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "true") {
		t.Errorf("ASK CSV = %q", out)
	}
}

func TestMarshalTSV(t *testing.T) {
	out, err := marshalTSV(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if lines[0] != "?s\t?v" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "<http://example.org/plato>") {
		t.Errorf("IRIs must be N-Triples formatted: %q", lines[1])
	}
	if !strings.Contains(lines[1], `"Plato"@en`) {
		t.Errorf("literals must keep tags: %q", lines[1])
	}
	if !strings.Contains(lines[2], "_:b0") {
		t.Errorf("bnode form: %q", lines[2])
	}
}

func TestMarshalXML(t *testing.T) {
	out, err := marshalXML(sampleResult())
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		`<variable name="s">`,
		`<uri>http://example.org/plato</uri>`,
		`xml:lang="en"`,
		`<bnode>b0</bnode>`,
		`datatype="` + rdf.XSDInteger + `"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("XML missing %q:\n%s", want, s)
		}
	}
	askOut, err := marshalXML(&sparql.Result{Ask: true, AskTrue: false})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(askOut), "<boolean>false</boolean>") {
		t.Errorf("ASK XML = %s", askOut)
	}
}

func TestNegotiateFormat(t *testing.T) {
	cases := []struct {
		accept string
		want   string
	}{
		{"", ContentType},
		{"*/*", ContentType},
		{"application/sparql-results+json", ContentType},
		{"application/json", ContentType},
		{"text/csv", ContentTypeCSV},
		{"text/tab-separated-values", ContentTypeTSV},
		{"application/sparql-results+xml", ContentTypeXML},
		{"text/html, text/csv;q=0.9", ContentTypeCSV},
		{"totally/bogus", ContentType},
	}
	for _, c := range cases {
		got := NegotiateFormat(c.accept)
		if got != c.want {
			t.Errorf("Negotiate(%q) = %q, want %q", c.accept, got, c.want)
		}
		if encoders[got] == nil {
			t.Errorf("Negotiate(%q) picked a format without an encoder", c.accept)
		}
	}
}

func TestServerContentNegotiation(t *testing.T) {
	srv := httptest.NewServer(NewServer(newTestEngine(t)))
	defer srv.Close()
	q := url.QueryEscape(`SELECT ?s WHERE { ?s a <http://example.org/Philosopher> . } ORDER BY ?s`)
	for accept, wantCT := range map[string]string{
		"text/csv":                       ContentTypeCSV,
		"text/tab-separated-values":      ContentTypeTSV,
		"application/sparql-results+xml": ContentTypeXML,
		"":                               ContentType,
	} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"?query="+q, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if ct != wantCT {
			t.Errorf("Accept %q: content type = %q, want %q", accept, ct, wantCT)
		}
	}
}

// xmlDoc is the whole results document as one struct: the shape the XML
// encoder wrote with one xml.MarshalIndent before it wrote a result at a
// time, kept as its oracle.
type xmlDoc struct {
	XMLName xml.Name `xml:"sparql"`
	Xmlns   string   `xml:"xmlns,attr"`
	Head    xmlHead  `xml:"head"`
	Boolean *bool    `xml:"boolean,omitempty"`
	Results *struct {
		Results []xmlResult `xml:"result"`
	} `xml:"results,omitempty"`
}

func oracleMarshalXML(t *testing.T, res *sparql.Result) []byte {
	doc := xmlDoc{Xmlns: "http://www.w3.org/2005/sparql-results#"}
	if res.Ask {
		doc.Boolean = &res.AskTrue
	} else {
		for _, v := range res.Vars {
			doc.Head.Variables = append(doc.Head.Variables, xmlVariable{Name: v})
		}
		doc.Results = &struct {
			Results []xmlResult `xml:"result"`
		}{}
		for _, sol := range res.Rows {
			var r xmlResult
			for _, v := range res.Vars {
				t, ok := sol[v]
				if !ok {
					continue
				}
				b := xmlBinding{Name: v}
				switch t.Kind {
				case rdf.IRI:
					b.URI = t.Value
				case rdf.Blank:
					b.BNode = t.Value
				default:
					b.Literal = &xmlLiteral{Lang: t.Lang, Datatype: t.Datatype, Value: t.Value}
				}
				r.Bindings = append(r.Bindings, b)
			}
			doc.Results.Results = append(doc.Results.Results, r)
		}
	}
	out, err := xml.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(xml.Header), out...)
}

// oracleMarshalCSV is the CSV encoder before it wrote a row at a time:
// one csv.Writer over the whole document.
func oracleMarshalCSV(t *testing.T, res *sparql.Result) []byte {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	if res.Ask {
		w.Write([]string{"boolean"})
		w.Write([]string{fmt.Sprint(res.AskTrue)})
	} else {
		w.Write(res.Vars)
		for _, sol := range res.Rows {
			row := make([]string, len(res.Vars))
			for i, v := range res.Vars {
				row[i] = sol[v].Value
			}
			w.Write(row)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return []byte(sb.String())
}

// TestXMLAndCSVMatchWholeDocumentOracles: the row-at-a-time XML and CSV
// encoders write the bytes their whole-document forms wrote, over the
// streaming corpus, the sample result and both ASK answers.
func TestXMLAndCSVMatchWholeDocumentOracles(t *testing.T) {
	eng := streamingFixtureEngine(t)
	results := []*sparql.Result{sampleResult(), {Ask: true, AskTrue: true}, {Ask: true}, {Vars: []string{"s"}}}
	for _, src := range streamingCorpus {
		res, err := eng.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i, res := range results {
		if got, _ := marshalXML(res); !bytes.Equal(got, oracleMarshalXML(t, res)) {
			t.Errorf("result %d: XML\n got  %s\n want %s", i, got, oracleMarshalXML(t, res))
		}
		if got, _ := marshalCSV(res); !bytes.Equal(got, oracleMarshalCSV(t, res)) {
			t.Errorf("result %d: CSV\n got  %q\n want %q", i, got, oracleMarshalCSV(t, res))
		}
	}
}

// The whole-body encoders: each format's encoder with nothing sent
// before the end, what the writer's output must equal on every path.
func keepAll(b []byte) ([]byte, error) { return b, nil }

// A materialised result reaches them through sparql.TableOf, as a cache
// tier's or a remote answer does.
func marshalJSON(res *sparql.Result) ([]byte, error) {
	return appendJSON(nil, sparql.TableOf(res), keepAll)
}
func marshalTSV(res *sparql.Result) ([]byte, error) {
	return appendTSV(nil, sparql.TableOf(res), keepAll)
}
func marshalCSV(res *sparql.Result) ([]byte, error) {
	return appendCSV(nil, sparql.TableOf(res), keepAll)
}
func marshalXML(res *sparql.Result) ([]byte, error) {
	return appendXML(nil, sparql.TableOf(res), keepAll)
}
