package endpoint

import (
	"encoding/csv"
	"encoding/xml"
	"fmt"
	"strings"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// Media types for the SPARQL 1.1 results formats the server negotiates.
const (
	ContentTypeCSV = "text/csv"
	ContentTypeTSV = "text/tab-separated-values"
	ContentTypeXML = "application/sparql-results+xml"
)

// encoders holds the one encoder of each negotiable format.
var encoders = map[string]encoder{
	ContentType:    appendJSON,
	ContentTypeTSV: appendTSV,
	ContentTypeCSV: appendCSV,
	ContentTypeXML: appendXML,
}

// NegotiateFormat picks a results format for an Accept header value and
// returns its media type. JSON is the default for empty, unknown, or
// wildcard values.
func NegotiateFormat(accept string) (contentType string) {
	for _, part := range strings.Split(accept, ",") {
		media := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		if media == "application/json" {
			return ContentType
		}
		if _, ok := encoders[media]; ok {
			return media
		}
	}
	return ContentType
}

// appendTSV is the SPARQL 1.1 TSV encoder: variables prefixed with '?',
// terms in N-Triples syntax, tab separators.
func appendTSV(dst []byte, tab *sparql.Table, spill spillFunc) ([]byte, error) {
	if tab.Ask {
		return fmt.Appendf(dst, "?boolean\n%v\n", tab.AskTrue), nil
	}
	for i, v := range tab.Vars {
		if i > 0 {
			dst = append(dst, '\t')
		}
		dst = append(append(dst, '?'), v...)
	}
	dst = append(dst, '\n')
	var err error
	for r := 0; r < tab.Len(); r++ {
		for c := range tab.Vars {
			if c > 0 {
				dst = append(dst, '\t')
			}
			if t, ok := tab.Term(r, c); ok {
				// N-Triples rendering, with tabs and newlines already
				// escaped by Term.String for literals.
				dst = append(dst, t.String()...)
			}
		}
		if dst, err = spill(append(dst, '\n')); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// sliceWriter is an io.Writer appending to b, for the encoding/csv and
// encoding/xml writers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// appendCSV is the SPARQL 1.1 CSV encoder: a header of variable names,
// values as plain strings (IRIs bare, literals by lexical form), unbound
// cells empty.
func appendCSV(dst []byte, tab *sparql.Table, spill spillFunc) ([]byte, error) {
	out := &sliceWriter{dst}
	w := csv.NewWriter(out) // out never fails: w.Error reports any write error
	if tab.Ask {
		err := w.WriteAll([][]string{{"boolean"}, {fmt.Sprint(tab.AskTrue)}})
		return out.b, err
	}
	_ = w.Write(tab.Vars)
	row := make([]string, len(tab.Vars))
	for r := 0; r < tab.Len(); r++ {
		for c := range row {
			t, _ := tab.Term(r, c) // unbound: the zero Term, an empty cell
			row[c] = t.Value
		}
		_ = w.Write(row)
		w.Flush()
		var err error
		if out.b, err = spill(out.b); err != nil {
			return out.b, err
		}
	}
	w.Flush()
	return out.b, w.Error()
}

// The SPARQL Query Results XML Format's elements.
type xmlHead struct {
	Variables []xmlVariable `xml:"variable"`
}

type xmlVariable struct {
	Name string `xml:"name,attr"`
}

type xmlResult struct {
	Bindings []xmlBinding `xml:"binding"`
}

type xmlBinding struct {
	Name    string      `xml:"name,attr"`
	URI     string      `xml:"uri,omitempty"`
	BNode   string      `xml:"bnode,omitempty"`
	Literal *xmlLiteral `xml:"literal,omitempty"`
}

type xmlLiteral struct {
	Lang     string `xml:"xml:lang,attr,omitempty"`
	Datatype string `xml:"datatype,attr,omitempty"`
	Value    string `xml:",chardata"`
}

func xmlStart(name string) xml.StartElement {
	return xml.StartElement{Name: xml.Name{Local: name}}
}

// appendXML is the SPARQL Query Results XML encoder: the document
// xml.MarshalIndent writes with a two-space indent, encoded one result
// element at a time.
func appendXML(dst []byte, tab *sparql.Table, spill spillFunc) ([]byte, error) {
	out := &sliceWriter{append(dst, xml.Header...)}
	enc := xml.NewEncoder(out)
	enc.Indent("", "  ")
	root, results := xmlStart("sparql"), xmlStart("results")
	root.Attr = []xml.Attr{{Name: xml.Name{Local: "xmlns"}, Value: "http://www.w3.org/2005/sparql-results#"}}
	var err error
	token := func(t xml.Token) {
		if err == nil {
			err = enc.EncodeToken(t)
		}
	}
	element := func(v any, name string) {
		if err == nil {
			err = enc.EncodeElement(v, xmlStart(name))
		}
	}
	token(root)
	var head xmlHead
	if tab.Ask {
		element(head, "head")
		element(tab.AskTrue, "boolean")
	} else {
		for _, v := range tab.Vars {
			head.Variables = append(head.Variables, xmlVariable{Name: v})
		}
		element(head, "head")
		token(results)
		for r := 0; r < tab.Len(); r++ {
			element(xmlResultOf(tab, r), "result")
			if err == nil {
				err = enc.Flush()
			}
			if err == nil {
				out.b, err = spill(out.b)
			}
		}
		token(results.End())
	}
	token(root.End())
	if err == nil {
		err = enc.Flush()
	}
	if err != nil {
		return out.b, fmt.Errorf("endpoint: xml: %w", err)
	}
	return out.b, nil
}

// xmlResultOf is the result element of row r.
func xmlResultOf(tab *sparql.Table, r int) xmlResult {
	var res xmlResult
	for c, v := range tab.Vars {
		t, ok := tab.Term(r, c)
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
		res.Bindings = append(res.Bindings, b)
	}
	return res
}
