// Package rdf provides the core RDF data model used throughout eLinda:
// terms (IRIs, literals, blank nodes), triples, a term dictionary for
// compact integer encoding, and parsers/serializers for the N-Triples and
// a pragmatic Turtle subset.
//
// The model follows the paper's Section 2: an RDF triple is an element of
// U x U x (U ∪ L) where U is the set of URIs and L the set of literals.
// Blank nodes are supported for input compatibility but are treated as
// URIs with a reserved prefix during exploration.
package rdf

import (
	"fmt"
	"strings"
)

// TermKind discriminates the three syntactic categories of RDF terms.
type TermKind uint8

const (
	// IRI is a Unique Resource Identifier (the paper's U).
	IRI TermKind = iota
	// Literal is an RDF literal (the paper's L), possibly tagged with a
	// language or datatype.
	Literal
	// Blank is a blank node. eLinda treats blank nodes as opaque URIs.
	Blank
)

// String returns the lowercase name of the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. The zero value is the empty IRI, which is
// never a valid term in a graph; IsZero reports that state.
//
// Terms are comparable values, so they can be used as map keys directly.
type Term struct {
	// Kind selects which category this term belongs to.
	Kind TermKind
	// Value holds the IRI string, the literal lexical form, or the blank
	// node label (without the "_:" prefix).
	Value string
	// Lang is the language tag for language-tagged literals ("en", "de").
	Lang string
	// Datatype is the datatype IRI for typed literals. Empty for plain
	// literals and IRIs.
	Datatype string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a typed literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsZero reports whether t is the zero Term.
func (t Term) IsZero() bool {
	return t.Kind == IRI && t.Value == "" && t.Lang == "" && t.Datatype == ""
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	case Literal:
		var b strings.Builder
		b.WriteByte('"')
		b.WriteString(escapeLiteral(t.Value))
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	default:
		return fmt.Sprintf("!badterm(%d,%q)", t.Kind, t.Value)
	}
}

// Compare orders terms: IRIs before blanks before literals, then by value,
// language and datatype. It returns -1, 0 or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Lang, u.Lang); c != 0 {
		return c
	}
	return strings.Compare(t.Datatype, u.Datatype)
}

// LocalName returns the fragment or last path segment of an IRI, which is
// the best short label when no rdfs:label is available. For literals it
// returns the lexical form, for blanks the label.
func (t Term) LocalName() string {
	if t.Kind != IRI {
		return t.Value
	}
	v := t.Value
	if i := strings.LastIndexByte(v, '#'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	if i := strings.LastIndexByte(v, '/'); i >= 0 && i+1 < len(v) {
		return v[i+1:]
	}
	return v
}

func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	// Byte by byte: every escaped character is ASCII, and a byte that is
	// not valid UTF-8 must pass through as itself, not as U+FFFD.
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeLiteral reverses escapeLiteral. Unknown escapes are kept verbatim
// (backslash dropped), matching the lenient behaviour of common parsers.
func unescapeLiteral(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' || i+1 >= len(s) {
			b.WriteByte(c)
			continue
		}
		i++
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'u':
			if i+4 < len(s) {
				var r rune
				ok := true
				for _, h := range s[i+1 : i+5] {
					d, okd := hexVal(byte(h))
					if !okd {
						ok = false
						break
					}
					r = r<<4 | rune(d)
				}
				if ok {
					b.WriteRune(r)
					i += 4
					continue
				}
			}
			b.WriteByte('u')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
