package rdf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
)

// This file implements the chunked streaming front end of the parallel
// ingest pipeline: a single pass reads the input once, cuts it into
// chunks on line (N-Triples) or statement (Turtle) boundaries, and hands
// each chunk to the caller. Turtle boundaries are found by turtleParser
// itself: the chunker parses every statement and directive as it reads,
// so a chunk ends exactly where ParseTurtle ends a statement, and a worker
// parses the chunk's text again with the same statement loop. Chunks are
// self-contained — a worker pool can parse them concurrently and in any
// order — and the whole document is never materialized as one string or
// one []Triple.

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
		p := &turtleParser{s: c.Data, line: c.Line, prefixes: c.prefixes, base: c.base}
		return p.parse(emit)
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
// stream order. For Turtle the chunker applies each @prefix/@base (and
// their SPARQL-style forms) as its parser meets them, so every chunk
// carries the prefix table in effect at its position. An emit error
// aborts the stream.
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

// streamTurtleChunks cuts the stream where turtleParser itself ends each
// statement and directive, so a streamed document splits exactly where
// ParseTurtle splits it. It reads a window of at least chunkBytes, parses
// unit after unit across it, and emits the statements parsed since the
// window's start or the last directive as one chunk, with the prefix
// table and base in effect frozen in. A unit the window may have cut short — it failed, or it ran
// to the window's end, while input remains — is rewound (position, line,
// base and the copy-on-write prefix table) and parsed again over a window
// that at least doubles, up to maxStatementBytes.
func streamTurtleChunks(r io.Reader, chunkBytes int, emit func(Chunk) error) error {
	p := &turtleParser{line: 1, prefixes: WellKnownPrefixes}
	var (
		pend  []byte // the unparsed tail of the input read so far
		eof   bool
		index int
		ts    []Triple
	)
	for !eof {
		want := max(chunkBytes, len(pend))
		pend = slices.Grow(pend, want)
		n, rerr := io.ReadFull(r, pend[len(pend):len(pend)+want])
		pend = pend[:len(pend)+n]
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			eof = true
		} else if rerr != nil {
			return fmt.Errorf("rdf: reading stream: %w", rerr)
		}

		p.s, p.pos = string(pend), 0
		group, groupLine := -1, 0 // p.s[group:] starts the open chunk
		flush := func(end int, prefixes map[string]string, base string) error {
			if group < 0 {
				return nil
			}
			c := Chunk{Index: index, Data: p.s[group:end], Line: groupLine, syntax: SyntaxTurtle, prefixes: prefixes, base: base}
			index++
			group = -1
			return emit(c)
		}
		for {
			start, line, prefixes, base := p.pos, p.line, p.prefixes, p.base
			p.skipWSAndComments()
			if p.eof() && eof {
				break
			}
			unitStart, unitLine := p.pos, p.line
			var directive bool
			var err error
			if !p.eof() {
				ts, directive, err = p.unit(ts[:0])
			}
			if !eof && (err != nil || p.eof()) {
				// The window may have cut this unit (or a comment before
				// it) short: rewind to its start and read more. Of a run
				// of separators only the last line can be cut short.
				if unitStart == len(p.s) {
					if i := strings.LastIndexByte(p.s[start:], '\n'); i >= 0 {
						start, line = start+i+1, p.line
					}
				}
				if len(p.s)-start >= maxStatementBytes {
					msg := fmt.Sprintf("no complete statement within %d bytes", maxStatementBytes)
					var pe *ParseError
					if errors.As(err, &pe) {
						msg += ": " + pe.Msg
					}
					return &ParseError{Line: unitLine, Msg: msg}
				}
				p.pos, p.line, p.prefixes, p.base = start, line, prefixes, base
				break
			}
			if err != nil {
				return err
			}
			if directive {
				if err := flush(start, prefixes, base); err != nil {
					return err
				}
				continue
			}
			if group < 0 {
				group, groupLine = unitStart, unitLine
			}
		}
		if err := flush(p.pos, p.prefixes, p.base); err != nil {
			return err
		}
		pend = append(pend[:0], pend[p.pos:]...)
	}
	return nil
}
