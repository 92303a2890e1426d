package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"time"

	"elinda/internal/rdf"
)

// ReplayOps reads every decodable record in the log in append order and
// hands each mutation op to fn. It must run before the first append
// (replay feeds the recovered store; appending first would interleave
// epochs).
//
// Torn tails are tolerated by construction, not by flag: within a
// segment, replay stops at the first record that fails its length,
// CRC or decode check and moves on to the next segment. That is safe —
// never skips acknowledged data — because the writer seals (fsyncs)
// a segment before creating its successor and never appends to a
// segment after a failed write, so any garbage is strictly after the
// last acknowledged record of its segment. A segment with a bad or
// missing header is skipped the same way (a crash between segment
// create and the first record sync can leave one).
//
// An error from fn aborts the replay and is returned as-is; IO errors
// reading a segment abort as well (unlike corruption, an unreadable
// file is a real failure). The count of applied records is returned in
// both cases.
func (w *WAL) ReplayOps(fn func(rdf.TripleOp) error) (int, error) {
	w.mu.Lock()
	if w.replayed {
		w.mu.Unlock()
		return 0, errors.New("wal: replay after append")
	}
	w.replayed = true
	fs, dir := w.fs, w.dir
	w.mu.Unlock()

	segs, err := listSegments(fs, dir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	applied := 0
	// Replay statistics feed the /metrics WAL section: boot dashboards
	// read them to see how much recovery work each restart did.
	record := func() {
		w.mu.Lock()
		w.stats.ReplayedRecords = uint64(applied)
		w.stats.ReplayDuration = time.Since(start)
		w.mu.Unlock()
	}
	for _, idx := range segs {
		name := filepath.Join(dir, segName(idx))
		f, err := fs.Open(name)
		if err != nil {
			record()
			return applied, fmt.Errorf("wal: replaying %s: %w", name, err)
		}
		n, err := replaySegment(f, fn)
		f.Close()
		applied += n
		if err != nil {
			record()
			return applied, err
		}
	}
	record()
	return applied, nil
}

// replaySegment applies the valid record prefix of one segment.
// Corruption ends the segment silently; only fn errors and read errors
// propagate. The segment's format version bounds the record kinds it may
// legitimately hold: a delete record inside a v1 segment is corruption.
func replaySegment(r io.Reader, fn func(rdf.TripleOp) error) (int, error) {
	br := newByteReader(r)
	var magic [len(segMagic)]byte
	if !br.full(magic[:]) {
		return 0, br.err
	}
	maxKind := byte(recDel)
	switch string(magic[:]) {
	case segMagic:
	case segMagicV1:
		maxKind = recAdd
	default:
		return 0, nil // foreign or torn header: skip the segment
	}
	applied := 0
	var hdr [8]byte
	for {
		if !br.full(hdr[:]) {
			return applied, br.err
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecordBytes {
			return applied, nil // implausible length: torn or corrupt tail
		}
		payload := make([]byte, n)
		if !br.full(payload) {
			return applied, br.err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return applied, nil
		}
		op, err := decodeRecord(payload, maxKind)
		if err != nil {
			return applied, nil
		}
		if err := fn(op); err != nil {
			return applied, err
		}
		applied++
	}
}

// byteReader wraps an io.Reader with a full-or-nothing read helper that
// distinguishes clean EOF / torn tail (err == nil) from real IO errors.
type byteReader struct {
	r   io.Reader
	err error
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

// full reads exactly len(p) bytes. It returns false at EOF or on a short
// read (torn tail — err stays nil) and on IO errors (err is set).
func (b *byteReader) full(p []byte) bool {
	_, err := io.ReadFull(b.r, p)
	switch {
	case err == nil:
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return false
	default:
		b.err = err
		return false
	}
}
