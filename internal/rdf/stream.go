package rdf

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"
)

// This file implements the chunked streaming front end of the parallel
// ingest pipeline: a single scanner pass walks the input once, cuts it
// into chunks on line (N-Triples) or statement (Turtle) boundaries, and
// hands each chunk to the caller. Chunks are self-contained — a worker
// pool can parse them concurrently and in any order — and the whole
// document is never materialized as one string or one []Triple.

// Syntax selects the concrete syntax of a streamed RDF document.
type Syntax int

const (
	// SyntaxNTriples is line-oriented N-Triples.
	SyntaxNTriples Syntax = iota
	// SyntaxTurtle is the pragmatic Turtle subset of ReadTurtle.
	SyntaxTurtle
)

// String returns the conventional file extension name of the format.
func (f Syntax) String() string {
	if f == SyntaxTurtle {
		return "ttl"
	}
	return "nt"
}

// DetectFormat picks the syntax from a file name: .ttl (and .turtle) mean
// Turtle, everything else N-Triples.
func DetectFormat(path string) Syntax {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".ttl", ".turtle":
		return SyntaxTurtle
	}
	return SyntaxNTriples
}

// Chunk is one independently parseable slice of a streamed document: whole
// lines for N-Triples, whole statements for Turtle, with the prefix table
// in effect at the chunk's position frozen in. Chunks carry everything a
// worker needs, so they may be parsed concurrently and out of order.
type Chunk struct {
	// Index is the 0-based sequence number of the chunk in the stream.
	Index int
	// Data holds the chunk's raw statement text.
	Data string
	// Line is the 1-based line number of the chunk's first byte.
	Line int

	syntax   Syntax
	prefixes map[string]string // Turtle: frozen prefix table (read-only)
	base     string            // Turtle: @base in effect
}

// Parse parses every statement in the chunk, invoking emit per triple in
// document order. An emit error aborts the parse and is returned as is.
func (c *Chunk) Parse(emit func(Triple) error) error {
	if c.syntax == SyntaxTurtle {
		return parseTurtleChunk(c.Data, c.Line, c.prefixes, c.base, emit)
	}
	return parseNTChunk(c.Data, c.Line, emit)
}

// parseNTChunk parses the N-Triples lines of a chunk.
func parseNTChunk(data string, startLine int, emit func(Triple) error) error {
	line := startLine
	for len(data) > 0 {
		var l string
		if end := strings.IndexByte(data, '\n'); end >= 0 {
			l, data = data[:end], data[end+1:]
		} else {
			l, data = data, ""
		}
		t, ok, err := parseNTLine(l, line)
		if err != nil {
			return err
		}
		line++
		if !ok {
			continue
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	return nil
}

const (
	// defaultChunkBytes is the target chunk size: big enough that
	// per-chunk overhead vanishes, small enough that a handful of chunks
	// per worker keep the pipeline balanced.
	defaultChunkBytes = 1 << 20
	// maxStatementBytes bounds a single line/statement so a corrupt input
	// (an unterminated literal swallowing the document) fails loudly
	// instead of buffering everything. Mirrors ReadNTriples' scanner cap.
	maxStatementBytes = 16 << 20
)

// StreamChunks reads r once, cutting it into boundary-aligned chunks of
// roughly chunkBytes (0 means the default), and calls emit for each in
// stream order. For Turtle it also interprets @prefix/@base (and their
// SPARQL-style forms) on the fly, so every chunk carries the prefix table
// in effect at its position. An emit error aborts the stream.
func StreamChunks(r io.Reader, syntax Syntax, chunkBytes int, emit func(Chunk) error) error {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	if syntax == SyntaxTurtle {
		return streamTurtleChunks(r, chunkBytes, emit)
	}
	return streamNTChunks(r, chunkBytes, emit)
}

// streamNTChunks cuts the stream on newline boundaries.
func streamNTChunks(r io.Reader, chunkBytes int, emit func(Chunk) error) error {
	var (
		pend  []byte
		buf   = make([]byte, chunkBytes)
		line  = 1
		index = 0
	)
	flush := func(upto int) error {
		c := Chunk{Index: index, Data: string(pend[:upto]), Line: line}
		if err := emit(c); err != nil {
			return err
		}
		index++
		line += bytes.Count(pend[:upto], nl)
		pend = append(pend[:0], pend[upto:]...)
		return nil
	}
	noNL := 0 // pend[:noNL] is known to hold no '\n'; avoids rescans
	for {
		n, rerr := r.Read(buf)
		pend = append(pend, buf[:n]...)
		if len(pend) >= chunkBytes {
			// Cut at the last newline; the unscanned suffix is all that
			// can hold one. After a flush the tail has no newline either,
			// so a single cut per read drains everything cuttable.
			if cut := bytes.LastIndexByte(pend[noNL:], '\n'); cut >= 0 {
				if err := flush(noNL + cut + 1); err != nil {
					return err
				}
			} else if len(pend) > maxStatementBytes {
				return &ParseError{Line: line, Msg: fmt.Sprintf("line exceeds %d bytes", maxStatementBytes)}
			}
			noNL = len(pend)
		}
		if rerr == io.EOF {
			if len(pend) > 0 {
				return flush(len(pend))
			}
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("rdf: reading stream: %w", rerr)
		}
	}
}

var nl = []byte{'\n'}

// --- Turtle statement-boundary streaming ---

// ttlStream walks a Turtle stream one top-level unit (statement or
// directive) at a time, maintaining the prefix table, and groups
// statements into chunks.
type ttlStream struct {
	r    io.Reader
	buf  []byte // read scratch
	pend []byte // unconsumed input, starts mid-stream
	eof  bool
	line int // line number of pend[0]

	prefixes map[string]string
	base     string

	group     []byte // accumulated statements for the next chunk
	groupLine int
	index     int
	chunk     int
	emit      func(Chunk) error
}

// streamTurtleChunks cuts the stream on statement boundaries and applies
// directives in the chunker, so worker-parsed chunks need no shared
// mutable prefix state.
func streamTurtleChunks(r io.Reader, chunkBytes int, emit func(Chunk) error) error {
	s := &ttlStream{
		r:        r,
		buf:      make([]byte, 64*1024),
		line:     1,
		prefixes: map[string]string{},
		chunk:    chunkBytes,
		emit:     emit,
	}
	for k, v := range WellKnownPrefixes {
		s.prefixes[k] = v
	}
	for {
		if err := s.skipSeparators(); err != nil {
			return err
		}
		if s.eof && len(s.pend) == 0 {
			return s.flush()
		}
		isDirective, err := s.atDirective()
		if err != nil {
			return err
		}
		if isDirective {
			if err := s.flush(); err != nil {
				return err
			}
			if err := s.directive(); err != nil {
				return err
			}
			continue
		}
		if err := s.statement(); err != nil {
			return err
		}
		if len(s.group) >= s.chunk {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
}

// fill reads more input into pend; returns false when the source is
// exhausted and nothing was added.
func (s *ttlStream) fill() (bool, error) {
	if s.eof {
		return false, nil
	}
	n, err := s.r.Read(s.buf)
	s.pend = append(s.pend, s.buf[:n]...)
	if err == io.EOF {
		s.eof = true
	} else if err != nil {
		return false, fmt.Errorf("rdf: reading stream: %w", err)
	}
	return n > 0, nil
}

// need ensures at least n bytes are buffered, or that EOF was reached.
func (s *ttlStream) need(n int) error {
	for len(s.pend) < n && !s.eof {
		if _, err := s.fill(); err != nil {
			return err
		}
	}
	return nil
}

// consume drops n bytes from pend, updating the line counter.
func (s *ttlStream) consume(n int) {
	s.line += bytes.Count(s.pend[:n], nl)
	s.pend = append(s.pend[:0], s.pend[n:]...)
}

// skipSeparators consumes whitespace and comments between units. While a
// chunk group is open, the separator bytes are appended to it verbatim:
// chunk text then reproduces the input byte for byte from the group's
// first statement on, which keeps in-chunk parse-error line numbers
// exact even for multi-line statements.
func (s *ttlStream) skipSeparators() error {
	drop := func(i int) {
		if i > 0 && len(s.group) > 0 {
			s.group = append(s.group, s.pend[:i]...)
		}
		s.consume(i)
	}
	for {
		i := 0
		for i < len(s.pend) {
			c := s.pend[i]
			if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
				i++
				continue
			}
			if c == '#' {
				j := bytes.IndexByte(s.pend[i:], '\n')
				if j < 0 {
					if !s.eof {
						break // comment may continue; read more
					}
					i = len(s.pend)
					continue
				}
				i += j + 1
				continue
			}
			drop(i)
			return nil
		}
		drop(i)
		if s.eof {
			return nil
		}
		if _, err := s.fill(); err != nil {
			return err
		}
	}
}

// atDirective reports whether pend (positioned at a unit start) begins a
// @prefix/@base/PREFIX/BASE directive.
func (s *ttlStream) atDirective() (bool, error) {
	if err := s.need(8); err != nil {
		return false, err
	}
	if len(s.pend) == 0 {
		return false, nil
	}
	if s.pend[0] == '@' {
		return true, nil
	}
	head := s.pend
	if len(head) > 8 {
		head = head[:8]
	}
	up := strings.ToUpper(string(head))
	return strings.HasPrefix(up, "PREFIX") || strings.HasPrefix(up, "BASE"), nil
}

// scanUnit returns the length of the complete statement starting at
// pend[0], reading more input as needed. A statement ends at a top-level
// '.' right after an IRI or a quoted literal, or at one followed by
// whitespace, a comment, an '@' directive, or EOF.
func (s *ttlStream) scanUnit() (int, error) {
	var (
		i       int
		inIRI   bool
		quote   byte
		comment bool
	)
	for {
		for i < len(s.pend) {
			c := s.pend[i]
			switch {
			case comment:
				if c == '\n' {
					comment = false
				}
			case quote != 0:
				if c == '\\' {
					i++ // skip the escaped byte
				} else if c == quote {
					quote = 0
				}
			case inIRI:
				if c == '>' {
					inIRI = false
				}
			case c == '<':
				inIRI = true
			case c == '"' || c == '\'':
				quote = c
			case c == '#':
				comment = true
			case c == '.':
				// Terminator iff it closes an IRI or literal token (no
				// token continues past '>' or a closing quote with '.'),
				// or is followed by whitespace/comment/EOF or an '@'
				// directive; a '.' inside a number or name is always
				// followed by more token characters, and no token
				// continues with '@'.
				if i > 0 && (s.pend[i-1] == '>' || s.pend[i-1] == '"' || s.pend[i-1] == '\'') {
					return i + 1, nil
				}
				if i+1 >= len(s.pend) && !s.eof {
					if err := s.need(i + 2); err != nil {
						return 0, err
					}
					continue
				}
				if i+1 >= len(s.pend) || isWS(s.pend[i+1]) || s.pend[i+1] == '#' || s.pend[i+1] == '@' {
					return i + 1, nil
				}
			}
			i++
		}
		if s.eof {
			return 0, &ParseError{Line: s.line, Msg: "unexpected end of document, expected '.'"}
		}
		if len(s.pend) > maxStatementBytes {
			return 0, &ParseError{Line: s.line, Msg: fmt.Sprintf("statement exceeds %d bytes", maxStatementBytes)}
		}
		if _, err := s.fill(); err != nil {
			return 0, err
		}
	}
}

// statement appends the next statement to the current chunk group.
func (s *ttlStream) statement() error {
	n, err := s.scanUnit()
	if err != nil {
		return err
	}
	if len(s.group) == 0 {
		s.groupLine = s.line
	}
	s.group = append(s.group, s.pend[:n]...)
	s.consume(n)
	return nil
}

// directive parses and applies a @prefix/@base/PREFIX/BASE directive with
// the serial parser's own rule, so the unit ends exactly where ParseTurtle
// ends it (at the '.', whatever follows it). The parser runs over a window
// of pend that doubles until unseen bytes can no longer change the
// outcome: the parse succeeded short of the window's end, or the window
// holds all the input there is. The prefix table is cloned before the
// update: chunks already emitted keep reading their frozen table.
func (s *ttlStream) directive() error {
	for window := 256; ; window *= 2 {
		if err := s.need(window); err != nil {
			return err
		}
		w := min(window, len(s.pend))
		next := make(map[string]string, len(s.prefixes)+1)
		for k, v := range s.prefixes {
			next[k] = v
		}
		p := &turtleParser{s: string(s.pend[:w]), line: s.line, prefixes: next, base: s.base}
		err := p.directive()
		sawAll := s.eof && w == len(s.pend)
		if (err != nil || p.pos == w) && !sawAll && w <= maxStatementBytes {
			continue
		}
		if err != nil {
			return err
		}
		s.prefixes = next
		s.base = p.base
		s.consume(p.pos)
		return nil
	}
}

// flush emits the accumulated statement group as one chunk.
func (s *ttlStream) flush() error {
	if len(s.group) == 0 {
		return nil
	}
	c := Chunk{
		Index:    s.index,
		Data:     string(s.group),
		Line:     s.groupLine,
		syntax:   SyntaxTurtle,
		prefixes: s.prefixes,
		base:     s.base,
	}
	s.index++
	s.group = s.group[:0]
	return s.emit(c)
}
