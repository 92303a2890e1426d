// Package endpoint implements the HTTP SPARQL protocol layer of eLinda's
// architecture (Figure 3): a server that plays the Virtuoso endpoint role,
// speaking the SPARQL 1.1 Query Results JSON Format, and the matching
// client used for "AJAX communication with the Virtuoso server via its
// HTTP/JSON SPARQL interface" (Section 4, remote compatibility).
package endpoint

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"elinda/internal/rdf"
	"elinda/internal/sparql"
)

// jsonResults mirrors the SPARQL 1.1 Query Results JSON Format: the
// shape UnmarshalResult decodes. Encoding goes through the appenders
// below instead.
type jsonResults struct {
	Head    jsonHead      `json:"head"`
	Results *jsonBindings `json:"results,omitempty"`
	Boolean *bool         `json:"boolean,omitempty"`
}

type jsonHead struct {
	Vars []string `json:"vars,omitempty"`
}

type jsonBindings struct {
	Bindings []map[string]jsonTerm `json:"bindings"`
}

type jsonTerm struct {
	Type     string `json:"type"` // uri | literal | bnode
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

// appendJSON is the SPARQL JSON encoder: the table's column names sorted
// once per answer, each row appended directly from its cells.
func appendJSON(dst []byte, tab *sparql.Table, spill spillFunc) ([]byte, error) {
	if tab.Ask {
		return appendJSONAsk(dst, tab.AskTrue), nil
	}
	dst = appendJSONHead(dst, tab.Vars)
	keys := rowKeys(tab.Columns())
	var err error
	for i := 0; i < tab.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '{')
		n := 0
		for _, k := range keys {
			if t, ok := tab.Term(i, k.col); ok {
				if n > 0 {
					dst = append(dst, ',')
				}
				dst = appendJSONTerm(append(appendJSONString(dst, k.name), ':'), t)
				n++
			}
		}
		if dst, err = spill(append(dst, '}')); err != nil {
			return dst, err
		}
	}
	return append(dst, jsonTail...), nil
}

// The appenders write exactly the bytes encoding/json writes for
// jsonResults with each row a map[string]jsonTerm (json_oracle_test.go
// keeps that encoder as the reference), without reflection or a map per
// row.

// jsonTail closes the bindings array, the results object and the
// document.
const jsonTail = "]}}"

// appendJSONAsk appends a whole ASK document.
func appendJSONAsk(dst []byte, answer bool) []byte {
	dst = strconv.AppendBool(append(dst, `{"head":{},"boolean":`...), answer)
	return append(dst, '}')
}

// appendJSONHead appends a SELECT document up to the opening of its
// bindings array. An empty vars list is omitted, as omitempty does.
func appendJSONHead(dst []byte, vars []string) []byte {
	dst = append(dst, `{"head":{`...)
	if len(vars) > 0 {
		dst = append(dst, `"vars":[`...)
		for i, v := range vars {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, v)
		}
		dst = append(dst, ']')
	}
	return append(dst, `},"results":{"bindings":[`...)
}

// jsonKey is a row member's name and the column its value is read from.
type jsonKey struct {
	name string
	col  int
}

// rowKeys returns the column names once each in byte order, the order
// encoding/json writes a row map's keys in (a name outside Vars takes its
// place among a row's own names); a shared name reads its first column.
func rowKeys(cols []string) []jsonKey {
	var keys []jsonKey
	for c, name := range cols {
		if !slices.Contains(cols[:c], name) {
			keys = append(keys, jsonKey{name, c})
		}
	}
	slices.SortFunc(keys, func(a, b jsonKey) int { return strings.Compare(a.name, b.name) })
	return keys
}

// appendJSONTerm appends t as a binding's term object.
func appendJSONTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		dst = appendJSONString(append(dst, `{"type":"uri","value":`...), t.Value)
	case rdf.Blank:
		dst = appendJSONString(append(dst, `{"type":"bnode","value":`...), t.Value)
	default:
		dst = appendJSONString(append(dst, `{"type":"literal","value":`...), t.Value)
		if t.Lang != "" {
			dst = appendJSONString(append(dst, `,"xml:lang":`...), t.Lang)
		}
		if t.Datatype != "" {
			dst = appendJSONString(append(dst, `,"datatype":`...), t.Datatype)
		}
	}
	return append(dst, '}')
}

// jsonSafe marks the ASCII bytes encoding/json copies unescaped: the
// printable ones and DEL, except '"' and '\\' and, because it escapes
// HTML by default, '<', '>' and '&'.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		safe[b] = true
	}
	for _, b := range `"\<>&` {
		safe[b] = false
	}
	return safe
}()

// appendJSONString appends s as a JSON string escaped as encoding/json
// escapes it: short escapes for '"', '\\', \b, \f, \n, \r and \t, \u00XX
// for the other control bytes and for '<', '>' and '&', \ufffd for each
// byte of invalid UTF-8, and \u2028 and \u2029 for the line and paragraph
// separators.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			if r == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
			}
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// UnmarshalResult decodes a SPARQL 1.1 JSON document back to a Result.
func UnmarshalResult(data []byte) (*sparql.Result, error) {
	var doc jsonResults
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("endpoint: unmarshaling results: %w", err)
	}
	if doc.Boolean != nil {
		return &sparql.Result{Ask: true, AskTrue: *doc.Boolean}, nil
	}
	if doc.Results == nil {
		return nil, fmt.Errorf("endpoint: document has neither results nor boolean")
	}
	res := &sparql.Result{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := sparql.Solution{}
		for v, jt := range b {
			t, err := jsonToTerm(jt)
			if err != nil {
				return nil, err
			}
			row[v] = t
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func jsonToTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		switch {
		case jt.Lang != "":
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		case jt.Datatype != "":
			return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
		default:
			return rdf.NewLiteral(jt.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("endpoint: unknown term type %q", jt.Type)
	}
}
