package endpoint

// Streaming result encoders. The buffered path (NegotiateFormat +
// Marshal*) materializes a *sparql.Result and then a full []byte body;
// for large results that doubles peak memory and delays the first byte
// until the last row is computed. The streamers below implement
// sparql.RowSink and emit the SPARQL 1.1 JSON and TSV formats row by row,
// flushing the HTTP response every DefaultFlushRows rows so clients see results
// while the query is still producing. Their output is byte-identical to
// the buffered encoders — TestStreamingEncodersByteIdentical holds the
// two paths together.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"

	"elinda/internal/sparql"
)

// DefaultFlushRows is the streaming flush cadence: every 256 rows the
// encoder pushes buffered bytes to the client.
const DefaultFlushRows = 256

// ResultStreamer is a sparql.RowSink that serializes a result
// incrementally. Close finishes the document after a successful
// execution; Abort flushes what was written WITHOUT terminating the
// document, so a mid-stream failure leaves the body visibly truncated
// (a closed JSON document would read as a complete, smaller result);
// Started reports whether any byte has actually reached the underlying
// writer — not merely the encoder's internal buffer — i.e. whether an
// HTTP handler can still switch to an error status.
type ResultStreamer interface {
	sparql.RowSink
	Close() error
	Abort() error
	Started() bool
}

// NegotiateStreamer picks a streaming encoder for an Accept header value,
// writing to w (flushed through f, when non-nil, every flushEvery rows;
// flushEvery <= 0 means DefaultFlushRows). ok=false means the format only
// has a buffered encoder (CSV, XML) and the caller must fall back.
func NegotiateStreamer(accept string, w io.Writer, f http.Flusher, flushEvery int) (contentType string, s ResultStreamer, ok bool) {
	ct, _ := NegotiateFormat(accept)
	switch ct {
	case ContentType:
		return ct, NewJSONStreamer(w, f, flushEvery), true
	case ContentTypeTSV:
		return ct, NewTSVStreamer(w, f, flushEvery), true
	}
	return ct, nil, false
}

// countingWriter tracks whether anything reached the real writer — the
// bufio layer (and its automatic overflow flushes) makes "we wrote into
// the encoder" different from "the response is committed on the wire".
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// streamBase carries the shared buffering/flush mechanics.
type streamBase struct {
	cw      *countingWriter
	bw      *bufio.Writer
	flusher http.Flusher
	every   int
	rows    int
}

func newStreamBase(w io.Writer, f http.Flusher, every int) streamBase {
	if every <= 0 {
		every = DefaultFlushRows
	}
	cw := &countingWriter{w: w}
	return streamBase{cw: cw, bw: bufio.NewWriterSize(cw, 16<<10), flusher: f, every: every}
}

// Started implements ResultStreamer: true only once bytes are on the
// wire. An error raised while the header still sits in the bufio buffer
// can therefore still be turned into a proper HTTP error status (the
// buffered bytes are simply never flushed).
func (s *streamBase) Started() bool { return s.cw.n > 0 }

// Abort implements ResultStreamer: flush pending bytes, no terminator.
func (s *streamBase) Abort() error { return s.flushNow() }

// rowDone counts a row and flushes on the configured cadence.
func (s *streamBase) rowDone() error {
	s.rows++
	if s.rows%s.every != 0 {
		return nil
	}
	return s.flushNow()
}

func (s *streamBase) flushNow() error {
	if err := s.bw.Flush(); err != nil {
		return err
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
	return nil
}

// JSONStreamer emits the SPARQL 1.1 Query Results JSON Format
// incrementally, byte-identical to MarshalResult: both write through the
// appenders in json.go.
type JSONStreamer struct {
	streamBase
	ask  bool
	keys []string // Head's vars in row-key order, sorted once
	buf  []byte   // one row's bytes, reused for every row
}

// NewJSONStreamer returns a streamer writing to w.
func NewJSONStreamer(w io.Writer, f http.Flusher, flushEvery int) *JSONStreamer {
	return &JSONStreamer{streamBase: newStreamBase(w, f, flushEvery)}
}

// Head implements sparql.RowSink.
func (s *JSONStreamer) Head(vars []string, ask, askTrue bool) error {
	if ask {
		s.ask = true
		s.buf = appendJSONAsk(s.buf[:0], askTrue)
	} else {
		s.keys = rowKeys(vars)
		s.buf = appendJSONHead(s.buf[:0], vars)
	}
	_, err := s.bw.Write(s.buf)
	return err
}

// Row implements sparql.RowSink.
func (s *JSONStreamer) Row(sol sparql.Solution) error {
	s.buf = s.buf[:0]
	if s.rows > 0 {
		s.buf = append(s.buf, ',')
	}
	s.buf = appendJSONRow(s.buf, s.keys, sol)
	if _, err := s.bw.Write(s.buf); err != nil {
		return err
	}
	return s.rowDone()
}

// Close implements ResultStreamer.
func (s *JSONStreamer) Close() error {
	if !s.ask {
		if _, err := s.bw.WriteString(jsonTail); err != nil {
			return err
		}
	}
	return s.flushNow()
}

// TSVStreamer emits the SPARQL 1.1 TSV format incrementally,
// byte-identical to MarshalTSV (both render through tsvHeaderLine and
// tsvRowLine).
type TSVStreamer struct {
	streamBase
	vars []string
}

// NewTSVStreamer returns a streamer writing to w.
func NewTSVStreamer(w io.Writer, f http.Flusher, flushEvery int) *TSVStreamer {
	return &TSVStreamer{streamBase: newStreamBase(w, f, flushEvery)}
}

// Head implements sparql.RowSink.
func (s *TSVStreamer) Head(vars []string, ask, askTrue bool) error {
	if ask {
		_, err := fmt.Fprintf(s.bw, "?boolean\n%v\n", askTrue)
		return err
	}
	s.vars = vars
	_, err := s.bw.WriteString(tsvHeaderLine(vars))
	return err
}

// Row implements sparql.RowSink.
func (s *TSVStreamer) Row(sol sparql.Solution) error {
	if _, err := s.bw.WriteString(tsvRowLine(s.vars, sol)); err != nil {
		return err
	}
	return s.rowDone()
}

// Close implements ResultStreamer.
func (s *TSVStreamer) Close() error { return s.flushNow() }
