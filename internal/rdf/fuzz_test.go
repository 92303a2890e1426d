package rdf

import (
	"bytes"
	"testing"
)

// FuzzStreamChunks drives the parallel-ingest chunker with arbitrary
// documents and checks its two contracts: it never panics, and when the
// serial parser accepts the document, cutting it into (very small)
// chunks at several read sizes and parsing each chunk independently
// yields exactly the same triples in the same order — i.e. the chunker
// never splits a statement and never loses or duplicates one.
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte("<http://x/s> <http://x/p> <http://x/o> .\n"), false)
	f.Add([]byte("<http://x/s> <http://x/p> \"lit\" .\n<http://x/a> <http://x/b> <http://x/c> .\n"), false)
	f.Add([]byte("# comment\n\n<http://x/s> <http://x/p> _:b0 .\n"), false)
	f.Add([]byte("@prefix ex: <http://example.org/> .\nex:s ex:p ex:o .\n"), true)
	f.Add([]byte("@prefix ex: <http://example.org/> .\nex:s ex:p \"a\", \"b\" ; ex:q ex:o .\n"), true)
	f.Add([]byte("@base <http://example.org/> .\n<s> <p> <o> .\n"), true)
	f.Add([]byte(""), false)
	f.Add([]byte("not rdf at all"), true)
	f.Add([]byte("<unterminated"), false)

	f.Fuzz(func(t *testing.T, data []byte, useTurtle bool) {
		syntax := SyntaxNTriples
		var serial []Triple
		var serialErr error
		if useTurtle {
			syntax = SyntaxTurtle
			serial, serialErr = ReadTurtle(bytes.NewReader(data))
		} else {
			serial, serialErr = ReadNTriples(bytes.NewReader(data))
		}

		// Several read sizes move the window boundaries across the input.
		for _, chunkBytes := range []int{1, 7, 16} {
			var chunked []Triple
			chunkErr := StreamChunks(bytes.NewReader(data), syntax, chunkBytes, func(c Chunk) error {
				return c.Parse(func(tr Triple) error {
					chunked = append(chunked, tr)
					return nil
				})
			})

			if serialErr != nil {
				// The serial parser rejected the document; the chunker
				// may reject it too (usually with the same error). It
				// just must not crash — reaching here is the invariant.
				continue
			}
			if chunkErr != nil {
				t.Fatalf("chunk %d: serial parse accepted %d triples but chunked parse failed: %v\ninput: %q", chunkBytes, len(serial), chunkErr, data)
			}
			if len(chunked) != len(serial) {
				t.Fatalf("chunk %d: chunked parse returned %d triples, serial %d\ninput: %q", chunkBytes, len(chunked), len(serial), data)
			}
			for i := range serial {
				if chunked[i] != serial[i] {
					t.Fatalf("chunk %d: triple %d differs: chunked %v, serial %v\ninput: %q", chunkBytes, i, chunked[i], serial[i], data)
				}
			}
		}
	})
}

// FuzzDetectFormat checks that syntax detection never panics and is a
// pure function of the path.
func FuzzDetectFormat(f *testing.F) {
	f.Add("data.nt")
	f.Add("data.ttl")
	f.Add("DATA.TURTLE")
	f.Add("")
	f.Add("no-extension")
	f.Add("weird..ttl.")
	f.Add("dir.ttl/file")

	f.Fuzz(func(t *testing.T, path string) {
		got := DetectFormat(path)
		if again := DetectFormat(path); again != got {
			t.Fatalf("DetectFormat(%q) unstable: %v then %v", path, got, again)
		}
		if s := got.String(); s != "nt" && s != "ttl" {
			t.Fatalf("DetectFormat(%q) = %v with unknown name %q", path, got, s)
		}
	})
}
