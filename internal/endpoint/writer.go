package endpoint

// The one writer every answer goes out through (see Server).

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"

	"elinda/internal/sparql"
)

// BodyBytes is the encode buffer of one response: the largest body sent
// whole with Content-Length, the chunk size of a larger one, and the
// largest body the proxy keeps beside a cached answer.
const BodyBytes = 64 << 10

// BodyExecutor is an Executor that hands the server its answer as ID
// rows to encode or, when it holds one, as the whole body in contentType
// (a NegotiateFormat type), written as is and with no table.
// *proxy.Proxy keeps its shared cached answers' bodies.
type BodyExecutor interface {
	QueryBody(ctx context.Context, src, contentType string) (*sparql.Table, []byte, error)
}

// An encoder appends tab to dst in one results format. After each row
// it hands its buffer to spill, which may send a prefix of it and
// returns what is left to append to; an error from spill stops the
// encoding and is returned.
type encoder func(dst []byte, tab *sparql.Table, spill spillFunc) ([]byte, error)

type spillFunc func([]byte) ([]byte, error)

// errTooLarge stops EncodeBody once the body outgrows BodyBytes.
var errTooLarge = errors.New("endpoint: body larger than BodyBytes")

// EncodeBody returns tab encoded in contentType when the body fits
// BodyBytes, and ok=false (having encoded at most BodyBytes plus one row)
// when it does not or the type is not one NegotiateFormat returns: the
// rule by which the server sends a body whole is the rule by which the
// proxy keeps one.
func EncodeBody(tab *sparql.Table, contentType string) (body []byte, ok bool) {
	encode, ok := encoders[contentType]
	if !ok {
		return nil, false
	}
	buf := bodyPool.Get().(*[]byte)
	body, err := encode((*buf)[:0], tab, func(b []byte) ([]byte, error) {
		if len(b) > BodyBytes {
			return b, errTooLarge
		}
		return b, nil
	})
	var kept []byte
	if err == nil && len(body) <= BodyBytes {
		kept = bytes.Clone(body) // a kept body never goes back to the pool
	}
	putBody(buf, body)
	return kept, kept != nil
}

// bodyPool holds encode buffers between answers, each of BodyBytes
// capacity; one that grew past twice that is dropped (putBody).
var bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, BodyBytes); return &b }}

// putBody returns buf to the pool holding b, the buffer encoded into.
func putBody(buf *[]byte, b []byte) {
	if cap(b) <= 2*BodyBytes {
		*buf = b[:0]
		bodyPool.Put(buf)
	}
}

// encodeFresh encodes tab into a pooled buffer and sends it.
func (a *answerWriter) encodeFresh(tab *sparql.Table, contentType string) error {
	buf := bodyPool.Get().(*[]byte)
	body, err := encoders[contentType]((*buf)[:0], tab, a.spill)
	if err == nil {
		err = a.finish(body)
	}
	putBody(buf, body)
	return err
}

// answerWriter sends one answer's body on w. Before its first chunk it
// commits a 200 that declares the CompleteTrailer; before every chunk it
// checks ctx, so a deadline or a client that went away stops the answer
// between chunks with the document unterminated and the trailer unset.
type answerWriter struct {
	ctx     context.Context
	w       http.ResponseWriter
	limit   int  // BodyBytes; the tests set a small one
	sent    bool // the header is on the wire: the status can no longer change
	chunked bool // the body goes out in chunks
}

// spill sends buf's leading limit-sized chunks while more than limit
// bytes are buffered, and returns the rest moved to the front of buf.
func (a *answerWriter) spill(buf []byte) ([]byte, error) {
	rest := buf
	for len(rest) > a.limit {
		if err := a.send(rest[:a.limit]); err != nil {
			return buf, err
		}
		rest = rest[a.limit:]
	}
	return buf[:copy(buf, rest)], nil
}

// send writes one chunk and flushes it to the client.
func (a *answerWriter) send(chunk []byte) error {
	if err := a.ctx.Err(); err != nil {
		return err
	}
	if !a.sent {
		a.w.Header().Set("Trailer", CompleteTrailer)
		a.w.WriteHeader(http.StatusOK)
		a.sent, a.chunked = true, true
	}
	if _, err := a.w.Write(chunk); err != nil {
		return err
	}
	if f, ok := a.w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// finish sends the end of a whole body: in one write with Content-Length
// when nothing was sent yet and it fits, and otherwise as the last
// chunks, with the CompleteTrailer set once every byte was handed over.
func (a *answerWriter) finish(buf []byte) error {
	if !a.sent && len(buf) <= a.limit {
		a.w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
		a.sent = true
		_, err := a.w.Write(buf)
		return err
	}
	buf, err := a.spill(buf)
	if err == nil {
		err = a.send(buf)
	}
	if err == nil {
		a.w.Header().Set(CompleteTrailer, "1")
	}
	return err
}
