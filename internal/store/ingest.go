package store

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"elinda/internal/rdf"
)

// This file implements the streaming, parallel bulk-load path. Load takes
// a fully materialized []rdf.Triple and encodes it serially; LoadStream
// instead pipelines the whole ingest over an io.Reader:
//
//	chunker  — one goroutine cuts the input: N-Triples at newlines,
//	           Turtle where rdf's Turtle parser, run over the stream
//	           by the chunker itself, ends each statement; it applies
//	           the directives and freezes the prefix table into chunks
//	workers  — GOMAXPROCS goroutines parse chunks and intern terms
//	           concurrently through a dictionary batch (sharded maps,
//	           provisional IDs)
//	commit   — new terms get canonical dense IDs in first-occurrence
//	           order and are published into the dictionary in one step
//	           (one read-map build), the provisional log is remapped in
//	           parallel, and the batch flows into the packed-key dedup,
//	           whose one sort also orders the columnar build: SPO is the
//	           sorted keys, OSP and POS follow by counting passes
//
// String triples exist only per chunk; the only corpus-sized allocations
// are ID arrays. Because canonical IDs equal the IDs a serial pass would
// have assigned, the resulting snapshot — including a binary dump of it —
// is byte-identical at any worker count, and identical to Load over the
// same parsed document.
//
// Unlike Load, which keeps the valid prefix when it hits a bad triple,
// LoadStream is all-or-nothing: an error leaves the store and its
// dictionary exactly as they were.

// StreamOptions configures LoadStream.
type StreamOptions struct {
	// Syntax is the input syntax (rdf.SyntaxNTriples or rdf.SyntaxTurtle).
	Syntax rdf.Syntax
	// ChunkBytes is the target chunk size; 0 means the rdf default (1 MiB).
	ChunkBytes int
}

// ingestChunk is a worker's output: the chunk's triples, dictionary-
// encoded with (possibly provisional) IDs.
type ingestChunk struct {
	index int
	enc   []rdf.EncodedTriple
	err   error
}

// LoadStream bulk-inserts every triple read from r, skipping duplicates,
// and returns the number actually added. See the file comment for the
// pipeline; on error nothing is applied.
func (s *Store) LoadStream(r io.Reader, opts StreamOptions) (int, error) {
	workers := runtime.GOMAXPROCS(0)

	s.writeMu.Lock()
	defer s.writeMu.Unlock()

	batch := s.dict.NewBatch()
	chunks := make(chan rdf.Chunk, workers*2)
	results := make(chan ingestChunk, workers*2)
	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	errStopped := fmt.Errorf("store: ingest aborted")
	var chunkerErr error
	go func() {
		chunkerErr = rdf.StreamChunks(r, opts.Syntax, opts.ChunkBytes, func(c rdf.Chunk) error {
			select {
			case chunks <- c:
				return nil
			case <-stop:
				return errStopped
			}
		})
		close(chunks)
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range chunks {
				out := ingestChunk{index: c.Index}
				stmt := 0
				out.err = c.Parse(func(t rdf.Triple) error {
					if err := t.Validate(); err != nil {
						return fmt.Errorf("store: chunk at line %d, triple %d: %w", c.Line, stmt, err)
					}
					// The occurrence key orders every term occurrence the
					// way a serial pass would visit it: by chunk, then
					// statement, then S/P/O position.
					pos := uint64(c.Index)<<38 | uint64(stmt)<<2
					out.enc = append(out.enc, rdf.EncodedTriple{
						S: batch.Intern(pos, t.S),
						P: batch.Intern(pos+1, t.P),
						O: batch.Intern(pos+2, t.O),
					})
					stmt++
					return nil
				})
				if out.err != nil {
					results <- out
					abort()
					return
				}
				select {
				case results <- out:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collect chunk results; order them by index afterwards so slow
	// chunks never stall the pipeline.
	var (
		parts      []ingestChunk
		total      int
		loadErr    error
		loadErrIdx int
	)
	for res := range results {
		if res.err != nil {
			// Prefer the error from the earliest chunk so failure
			// messages are as stable as possible across interleavings.
			if loadErr == nil || res.index < loadErrIdx {
				loadErr, loadErrIdx = res.err, res.index
			}
			continue
		}
		total += len(res.enc)
		parts = append(parts, res)
	}
	abort() // release the chunker if it is still reading
	if loadErr == nil && chunkerErr != nil && chunkerErr != errStopped {
		loadErr = chunkerErr
	}
	if loadErr != nil {
		return 0, loadErr
	}

	sort.Slice(parts, func(i, j int) bool { return parts[i].index < parts[j].index })
	log := make([]rdf.EncodedTriple, 0, total)
	for _, p := range parts {
		log = append(log, p.enc...)
	}

	// Publish the batch's new terms under canonical first-occurrence IDs,
	// then rewrite the provisional log — embarrassingly parallel.
	batch.Commit()
	remapParallel(log, batch, workers)

	snap := s.snap.Load()
	added, spo := dedupBatch(snap, log)
	if len(added) > 0 {
		s.snap.Store(applyBatch(snap, added, spo))
	}
	return len(added), nil
}

// remapParallel rewrites provisional IDs to canonical ones in place.
func remapParallel(log []rdf.EncodedTriple, batch *rdf.DictBatch, workers int) {
	const minPerWorker = 1 << 15
	if workers > len(log)/minPerWorker {
		workers = len(log) / minPerWorker
	}
	if workers <= 1 {
		for i := range log {
			log[i] = batch.CanonicalTriple(log[i])
		}
		return
	}
	var wg sync.WaitGroup
	stride := (len(log) + workers - 1) / workers
	for lo := 0; lo < len(log); lo += stride {
		hi := lo + stride
		if hi > len(log) {
			hi = len(log)
		}
		wg.Add(1)
		go func(part []rdf.EncodedTriple) {
			defer wg.Done()
			for i := range part {
				part[i] = batch.CanonicalTriple(part[i])
			}
		}(log[lo:hi])
	}
	wg.Wait()
}
