package rdf

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// collectStream runs the chunker+parser over doc and returns all triples
// in stream order, asserting chunk invariants along the way.
func collectStream(t *testing.T, doc string, syntax Syntax, chunkBytes int) []Triple {
	t.Helper()
	var out []Triple
	wantIndex := 0
	err := StreamChunks(strings.NewReader(doc), syntax, chunkBytes, func(c Chunk) error {
		if c.Index != wantIndex {
			t.Fatalf("chunk index %d, want %d", c.Index, wantIndex)
		}
		wantIndex++
		return c.Parse(func(tr Triple) error {
			out = append(out, tr)
			return nil
		})
	})
	if err != nil {
		t.Fatalf("stream (%v, chunk %d): %v", syntax, chunkBytes, err)
	}
	return out
}

func TestStreamNTriplesMatchesWholeDocument(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p%d> \"v %d\\n tail\"@en .\n", i, i%7, i)
		if i%50 == 0 {
			b.WriteString("# a comment line\n\n")
		}
	}
	doc := b.String()
	want, err := ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 17, 256, 1 << 20} {
		got := collectStream(t, doc, SyntaxNTriples, chunk)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d triples, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: triple %d = %v, want %v", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestStreamNTriplesReportsLineNumbers(t *testing.T) {
	doc := "<http://x/a> <http://x/p> <http://x/b> .\nnot a triple\n"
	err := StreamChunks(strings.NewReader(doc), SyntaxNTriples, 8, func(c Chunk) error {
		return c.Parse(func(Triple) error { return nil })
	})
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 {
		t.Fatalf("want ParseError at line 2, got %v", err)
	}
}

func TestStreamTurtleMatchesWholeDocument(t *testing.T) {
	docs := []string{
		`@prefix ex: <http://example.org/> .
# leading comment
ex:alice a ex:Person ;
    ex:name "Alice \"A.\"" ;
    ex:age 42 ;
    ex:score 3.14 ;
    ex:knows ex:bob, ex:carol .
ex:bob ex:name 'Bob' ; ex:ok true .
@prefix geo: <http://geo.example/> .
geo:x1 geo:near ex:alice .
PREFIX foo: <http://foo.example/>
foo:f1 foo:p "mid . dot" ; foo:q <http://raw/iri> .
_:b1 ex:name "blank"@de .
`,
		// A directive ends at its '.', whatever follows: the statement
		// right behind it belongs to the next unit, not to the directive.
		"@BAse<0>.<><><>. ",
		"@prefix e:<http://x/>.e:a e:p e:o . ",
		"BASE<http://x/>.<a> <p> <o> . ",
		"PREFIX e:<http://x/>.e:a e:p e:o . ",
		"PREFIX e>f:<http://x/> <http://x/a> <http://x/p> <http://x/o> . ",
		// A read of 21 bytes ends this PREFIX before its optional dot.
		"PREFIX e:<http://x/>\n.e:a e:p e:o .\n",
	}
	// Read sizes 1 to 64 put the first read boundary at every offset up
	// to 64.
	chunks := []int{1 << 20}
	for c := 1; c <= 64; c++ {
		chunks = append(chunks, c)
	}
	for _, doc := range docs {
		want, err := ParseTurtle(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("reference parse of %q produced no triples", doc)
		}
		for _, chunk := range chunks {
			got := collectStream(t, doc, SyntaxTurtle, chunk)
			if len(got) != len(want) {
				t.Fatalf("%q, chunk %d: %d triples, want %d", doc, chunk, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%q, chunk %d: triple %d = %v, want %v", doc, chunk, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamTurtleDirectiveAfterStatementDot is the mirror image of the
// directive-then-statement case above: a statement's '.' directly
// followed by a directive ends the statement, so the directive is applied
// before the statements behind it are chunked.
func TestStreamTurtleDirectiveAfterStatementDot(t *testing.T) {
	for _, doc := range []string{
		"<http://x/a> <http://x/b> <http://x/c>.@prefix x: <http://y/> . x:a x:b x:c . ",
		"<http://x/a> <http://x/b> <http://x/c>.PREFIX x: <http://y/> x:a x:b x:c . ",
		"<http://x/a> <http://x/b> \"c\".prefix x: <http://y/> x:a x:b x:c . ",
	} {
		want, err := ParseTurtle(doc)
		if err != nil || len(want) != 2 {
			t.Fatalf("%q: serial parse = %d triples, %v; want 2", doc, len(want), err)
		}
		for _, chunk := range []int{1, 16, 1 << 20} {
			got := collectStream(t, doc, SyntaxTurtle, chunk)
			if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("%q, chunk %d: %v, want %v", doc, chunk, got, want)
			}
		}
	}
}

// TestStreamTurtlePrefixFreezing pins the directive semantics: a chunk
// parsed after a redeclared prefix must use the table in effect at its
// own position, even when chunks are tiny.
func TestStreamTurtlePrefixFreezing(t *testing.T) {
	doc := `@prefix p: <http://one/> .
p:a p:x p:b .
@prefix p: <http://two/> .
p:a p:x p:b .
`
	got := collectStream(t, doc, SyntaxTurtle, 1)
	if len(got) != 2 {
		t.Fatalf("got %d triples", len(got))
	}
	if got[0].S.Value != "http://one/a" || got[1].S.Value != "http://two/a" {
		t.Fatalf("prefix table not frozen per chunk: %v / %v", got[0].S, got[1].S)
	}
}

func TestStreamTurtleErrors(t *testing.T) {
	cases := []string{
		"ex:a ex:b ex:c .",                           // undeclared prefix
		"<http://x/a> <http://x/p> \"unterminated .", // swallows the dot; hits EOF
		"@prefix broken",                             // unterminated directive
		"<http://x/a> <http://x/p> <http://x/b>",     // missing terminator
	}
	for _, doc := range cases {
		err := StreamChunks(strings.NewReader(doc), SyntaxTurtle, 16, func(c Chunk) error {
			return c.Parse(func(Triple) error { return nil })
		})
		if err == nil {
			t.Errorf("no error for %q", doc)
		}
	}
}

// endlessLiteral serves the start of a literal that never closes.
type endlessLiteral struct{ head string }

func (e *endlessLiteral) Read(p []byte) (int, error) {
	n := copy(p, e.head)
	e.head = e.head[n:]
	for i := n; i < len(p); i++ {
		p[i] = 'a'
	}
	return len(p), nil
}

// TestStreamTurtleBoundsStatement pins the window bound: a statement that
// never ends fails with a ParseError naming maxStatementBytes instead of
// reading forever.
func TestStreamTurtleBoundsStatement(t *testing.T) {
	r := &endlessLiteral{head: `<http://x/a> <http://x/p> "`}
	err := StreamChunks(r, SyntaxTurtle, 0, func(Chunk) error { return nil })
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 1 || !strings.Contains(pe.Msg, fmt.Sprint(maxStatementBytes)) {
		t.Fatalf("want a line-1 ParseError naming %d bytes, got %v", maxStatementBytes, err)
	}
}

// TestStreamTurtleLongSeparatorRun checks that the bound applies to
// statements, not to the comments and blank lines between them.
func TestStreamTurtleLongSeparatorRun(t *testing.T) {
	line := "# " + strings.Repeat("-", 61) + "\n"
	doc := strings.Repeat(line, maxStatementBytes/len(line)+1) + "<http://x/a> <http://x/p> <http://x/b> .\n"
	got := collectStream(t, doc, SyntaxTurtle, 0)
	if len(got) != 1 || got[0].S.Value != "http://x/a" {
		t.Fatalf("got %v, want the one statement after the comments", got)
	}
}

// errReader fails after serving its payload, checking error propagation.
type errReader struct {
	data []byte
	err  error
}

func (e *errReader) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

func TestStreamPropagatesReadErrors(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	for _, f := range []Syntax{SyntaxNTriples, SyntaxTurtle} {
		r := &errReader{data: []byte("<http://x/a> <http://x/p> <http://x/b> .\n"), err: boom}
		err := StreamChunks(r, f, 1<<20, func(c Chunk) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "disk on fire") {
			t.Errorf("format %v: error = %v, want wrapped read error", f, err)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	if DetectFormat("x.ttl") != SyntaxTurtle || DetectFormat("x.TURTLE") != SyntaxTurtle {
		t.Error("turtle extensions not detected")
	}
	if DetectFormat("x.nt") != SyntaxNTriples || DetectFormat("dump") != SyntaxNTriples {
		t.Error("nt default not applied")
	}
}

var _ io.Reader = (*errReader)(nil)

// TestStreamTurtleErrorLineNumbers pins the diagnostic parity with the
// serial reader: a malformed statement deep in a chunk (after multi-line
// statements and comments) must be reported at its true input line.
func TestStreamTurtleErrorLineNumbers(t *testing.T) {
	doc := `@prefix ex: <http://example.org/> .
ex:a ex:p ex:b ;
    ex:q ex:c ,
         ex:d .
# a comment between statements
ex:e ex:p ex:f .

ex:bad undeclared:p ex:g .
`
	err := StreamChunks(strings.NewReader(doc), SyntaxTurtle, 1<<20, func(c Chunk) error {
		return c.Parse(func(Triple) error { return nil })
	})
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("want ParseError, got %v", err)
	}
	if pe.Line != 8 {
		t.Fatalf("error reported at line %d, want 8: %v", pe.Line, pe)
	}
}
