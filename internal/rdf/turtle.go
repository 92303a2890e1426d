package rdf

import (
	"fmt"
	"io"
	"maps"
	"strings"
	"unicode"
)

// ReadTurtle parses a pragmatic subset of Turtle sufficient for the
// datasets eLinda consumes: @prefix and PREFIX directives, prefixed names,
// the 'a' keyword, predicate lists (';'), object lists (','), numeric and
// boolean literal shorthand, and comments. Collections and anonymous blank
// node property lists are not supported (our generators never emit them);
// encountering one is a parse error rather than silent misreading.
func ReadTurtle(r io.Reader) ([]Triple, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rdf: reading turtle: %w", err)
	}
	return ParseTurtle(string(data))
}

// ParseTurtle parses a Turtle document from a string. See ReadTurtle for
// the supported subset.
func ParseTurtle(s string) ([]Triple, error) {
	var out []Triple
	p := &turtleParser{s: s, line: 1, prefixes: WellKnownPrefixes}
	if err := p.parse(func(t Triple) error {
		out = append(out, t)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// parse runs the statement loop over the rest of p.s, invoking emit per
// triple in document order. It is the one loop behind ParseTurtle and the
// streamed chunks' Chunk.Parse.
func (p *turtleParser) parse(emit func(Triple) error) error {
	var ts []Triple
	for {
		p.skipWSAndComments()
		if p.eof() {
			return nil
		}
		var err error
		if ts, _, err = p.unit(ts[:0]); err != nil {
			return err
		}
		for _, t := range ts {
			if err := emit(t); err != nil {
				return err
			}
		}
	}
}

type turtleParser struct {
	s    string
	pos  int
	line int
	// prefixes is copy-on-write: directive replaces the map instead of
	// writing into it, so a saved reference stays the table it was (the
	// streamer's rewind and the table frozen into each chunk).
	prefixes map[string]string
	base     string
}

// unit parses the directive or statement at p.pos, which must not be at
// a separator or the end, and appends a statement's triples to out.
// directive reports which of the two it was.
func (p *turtleParser) unit(out []Triple) (_ []Triple, directive bool, err error) {
	if p.peek() == '@' || p.hasKeyword("PREFIX") || p.hasKeyword("BASE") {
		return out, true, p.directive()
	}
	out, err = p.statement(out)
	return out, false, err
}

func (p *turtleParser) eof() bool  { return p.pos >= len(p.s) }
func (p *turtleParser) peek() byte { return p.s[p.pos] }

func (p *turtleParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *turtleParser) advance() {
	if p.s[p.pos] == '\n' {
		p.line++
	}
	p.pos++
}

func (p *turtleParser) skipWSAndComments() {
	for !p.eof() {
		c := p.peek()
		if c == '#' {
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			p.advance()
			continue
		}
		return
	}
}

func (p *turtleParser) hasKeyword(kw string) bool {
	if p.pos+len(kw) > len(p.s) {
		return false
	}
	return strings.EqualFold(p.s[p.pos:p.pos+len(kw)], kw)
}

func (p *turtleParser) directive() error {
	atForm := p.peek() == '@'
	if atForm {
		p.pos++
	}
	switch {
	case p.hasKeyword("prefix"):
		p.pos += len("prefix")
		p.skipWSAndComments()
		name, err := p.prefixName()
		if err != nil {
			return err
		}
		p.skipWSAndComments()
		if p.eof() || p.peek() != '<' {
			return p.errf("expected namespace IRI in @prefix")
		}
		ns, err := p.iriRef()
		if err != nil {
			return err
		}
		p.prefixes = maps.Clone(p.prefixes)
		p.prefixes[name] = ns.Value
	case p.hasKeyword("base"):
		p.pos += len("base")
		p.skipWSAndComments()
		if p.eof() || p.peek() != '<' {
			return p.errf("expected IRI in @base")
		}
		b, err := p.iriRef()
		if err != nil {
			return err
		}
		p.base = b.Value
	default:
		return p.errf("unknown directive")
	}
	p.skipWSAndComments()
	if atForm {
		if p.eof() || p.peek() != '.' {
			return p.errf("expected '.' after @-directive")
		}
		p.pos++
	} else if !p.eof() && p.peek() == '.' {
		p.pos++ // SPARQL-style PREFIX tolerates an optional dot
	}
	return nil
}

func (p *turtleParser) prefixName() (string, error) {
	start := p.pos
	for !p.eof() && p.peek() != ':' {
		c := p.peek()
		if isWS(c) {
			return "", p.errf("malformed prefix name")
		}
		p.pos++
	}
	if p.eof() {
		return "", p.errf("malformed prefix declaration")
	}
	name := p.s[start:p.pos]
	p.pos++ // consume ':'
	return name, nil
}

// statement parses subject predicateObjectList '.' and appends the
// triples of its predicate (';') and object (',') lists to out.
func (p *turtleParser) statement(out []Triple) ([]Triple, error) {
	subj, err := p.subject()
	if err != nil {
		return nil, err
	}
	for {
		p.skipWSAndComments()
		pred, err := p.predicate()
		if err != nil {
			return nil, err
		}
		for {
			p.skipWSAndComments()
			obj, err := p.object()
			if err != nil {
				return nil, err
			}
			t := Triple{S: subj, P: pred, O: obj}
			if err := t.Validate(); err != nil {
				return nil, p.errf("%v", err)
			}
			out = append(out, t)
			p.skipWSAndComments()
			if !p.eof() && p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.eof() {
			return nil, p.errf("unexpected end of document, expected '.' or ';'")
		}
		switch p.peek() {
		case ';':
			p.pos++
			p.skipWSAndComments()
			// A dangling ';' before '.' is legal Turtle.
			if !p.eof() && p.peek() == '.' {
				p.pos++
				return out, nil
			}
			continue
		case '.':
			p.pos++
			return out, nil
		default:
			return nil, p.errf("expected ';' or '.', found %q", p.peek())
		}
	}
}

func (p *turtleParser) subject() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("expected subject")
	}
	switch {
	case p.peek() == '<':
		return p.iriRef()
	case p.peek() == '_':
		return p.blankNode()
	case p.peek() == '[':
		return Term{}, p.errf("anonymous blank nodes are not supported by this Turtle subset")
	case p.peek() == '(':
		return Term{}, p.errf("collections are not supported by this Turtle subset")
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) predicate() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("expected predicate")
	}
	if p.peek() == 'a' && (p.pos+1 >= len(p.s) || isWS(p.s[p.pos+1]) || p.s[p.pos+1] == '<') {
		p.pos++
		return TypeIRI, nil
	}
	if p.peek() == '<' {
		return p.iriRef()
	}
	return p.prefixedName()
}

func (p *turtleParser) object() (Term, error) {
	if p.eof() {
		return Term{}, p.errf("expected object")
	}
	c := p.peek()
	switch {
	case c == '<':
		return p.iriRef()
	case c == '_':
		return p.blankNode()
	case c == '"' || c == '\'':
		return p.literalTerm()
	case c == '[' || c == '(':
		return Term{}, p.errf("blank node property lists / collections are not supported")
	case c == '+' || c == '-' || c >= '0' && c <= '9':
		return p.numericLiteral()
	case p.hasKeyword("true") && p.boundaryAt(p.pos+4):
		p.pos += 4
		return NewTypedLiteral("true", XSDBoolean), nil
	case p.hasKeyword("false") && p.boundaryAt(p.pos+5):
		p.pos += 5
		return NewTypedLiteral("false", XSDBoolean), nil
	default:
		return p.prefixedName()
	}
}

func (p *turtleParser) boundaryAt(i int) bool {
	return i >= len(p.s) || isWS(p.s[i]) || p.s[i] == '.' || p.s[i] == ';' || p.s[i] == ','
}

func (p *turtleParser) iriRef() (Term, error) {
	end := strings.IndexByte(p.s[p.pos:], '>')
	if end < 0 {
		return Term{}, p.errf("unterminated IRI")
	}
	v := p.s[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(v, "://") && !strings.HasPrefix(v, "urn:") {
		v = p.base + v
	}
	if v == "" {
		return Term{}, p.errf("empty IRI")
	}
	return NewIRI(v), nil
}

func (p *turtleParser) blankNode() (Term, error) {
	if p.pos+1 >= len(p.s) || p.s[p.pos+1] != ':' {
		return Term{}, p.errf("malformed blank node")
	}
	start := p.pos + 2
	i := start
	for i < len(p.s) && isPNChar(rune(p.s[i])) {
		i++
	}
	if i == start {
		return Term{}, p.errf("empty blank node label")
	}
	label := p.s[start:i]
	p.pos = i
	return NewBlank(label), nil
}

func (p *turtleParser) prefixedName() (Term, error) {
	start := p.pos
	i := p.pos
	for i < len(p.s) && p.s[i] != ':' && isPNChar(rune(p.s[i])) {
		i++
	}
	if i >= len(p.s) || p.s[i] != ':' {
		return Term{}, p.errf("expected prefixed name near %q", excerpt(p.s, start))
	}
	prefix := p.s[start:i]
	ns, ok := p.prefixes[prefix]
	if !ok {
		return Term{}, p.errf("undeclared prefix %q", prefix)
	}
	i++ // consume ':'
	lstart := i
	for i < len(p.s) && isPNChar(rune(p.s[i])) {
		i++
	}
	local := p.s[lstart:i]
	p.pos = i
	return NewIRI(ns + local), nil
}

func (p *turtleParser) literalTerm() (Term, error) {
	quote := p.peek()
	i := p.pos + 1
	for i < len(p.s) {
		if p.s[i] == '\\' {
			i += 2
			continue
		}
		if p.s[i] == quote {
			break
		}
		if p.s[i] == '\n' {
			return Term{}, p.errf("newline in single-quoted literal (long literals unsupported)")
		}
		i++
	}
	if i >= len(p.s) {
		return Term{}, p.errf("unterminated literal")
	}
	lex := unescapeLiteral(p.s[p.pos+1 : i])
	p.pos = i + 1
	if !p.eof() && p.peek() == '@' {
		start := p.pos + 1
		j := start
		for j < len(p.s) && (isAlnum(p.s[j]) || p.s[j] == '-') {
			j++
		}
		if j == start {
			return Term{}, p.errf("empty language tag")
		}
		lang := p.s[start:j]
		p.pos = j
		return NewLangLiteral(lex, lang), nil
	}
	if p.pos+1 < len(p.s) && p.s[p.pos] == '^' && p.s[p.pos+1] == '^' {
		p.pos += 2
		var dt Term
		var err error
		if !p.eof() && p.peek() == '<' {
			dt, err = p.iriRef()
		} else {
			dt, err = p.prefixedName()
		}
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

func (p *turtleParser) numericLiteral() (Term, error) {
	start := p.pos
	i := p.pos
	if p.s[i] == '+' || p.s[i] == '-' {
		i++
	}
	sawDot, sawExp := false, false
	for i < len(p.s) {
		c := p.s[i]
		switch {
		case c >= '0' && c <= '9':
			i++
		case c == '.' && !sawDot && i+1 < len(p.s) && p.s[i+1] >= '0' && p.s[i+1] <= '9':
			sawDot = true
			i++
		case (c == 'e' || c == 'E') && !sawExp:
			sawExp = true
			i++
			if i < len(p.s) && (p.s[i] == '+' || p.s[i] == '-') {
				i++
			}
		default:
			goto done
		}
	}
done:
	lex := p.s[start:i]
	if lex == "" || lex == "+" || lex == "-" {
		return Term{}, p.errf("malformed numeric literal")
	}
	p.pos = i
	if sawDot || sawExp {
		return NewTypedLiteral(lex, XSDDouble), nil
	}
	return NewTypedLiteral(lex, XSDInteger), nil
}

func isPNChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func excerpt(s string, at int) string {
	end := at + 20
	if end > len(s) {
		end = len(s)
	}
	return s[at:end]
}

// WriteTurtle serializes triples grouped by subject using the well-known
// prefixes. Output is valid Turtle re-readable by ReadTurtle.
func WriteTurtle(w io.Writer, triples []Triple) error {
	var b strings.Builder
	for _, p := range [...]struct{ pfx, ns string }{
		{"owl", OWLNS}, {"rdf", RDFNS}, {"rdfs", RDFSNS}, {"xsd", XSDNS},
	} {
		fmt.Fprintf(&b, "@prefix %s: <%s> .\n", p.pfx, p.ns)
	}
	b.WriteByte('\n')
	// Group consecutive triples that share a subject.
	for i := 0; i < len(triples); {
		j := i
		for j < len(triples) && triples[j].S == triples[i].S {
			j++
		}
		b.WriteString(turtleTerm(triples[i].S))
		for k := i; k < j; k++ {
			if k > i {
				b.WriteString(" ;")
			}
			b.WriteString("\n    ")
			b.WriteString(turtleTerm(triples[k].P))
			b.WriteByte(' ')
			b.WriteString(turtleTerm(triples[k].O))
		}
		b.WriteString(" .\n")
		i = j
	}
	_, err := io.WriteString(w, b.String())
	if err != nil {
		return fmt.Errorf("rdf: writing turtle: %w", err)
	}
	return nil
}

func turtleTerm(t Term) string {
	if t.Kind == IRI {
		if t.Value == RDFType {
			return "a"
		}
		q := QName(t.Value)
		// QName falls back to <...>; both forms are valid Turtle, but a
		// compacted name must not contain characters our reader rejects.
		if !strings.HasPrefix(q, "<") && strings.ContainsAny(q[strings.IndexByte(q, ':')+1:], "/#") {
			return "<" + t.Value + ">"
		}
		return q
	}
	return t.String()
}
