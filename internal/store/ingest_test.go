package store

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"elinda/internal/rdf"
)

// ingestCorpus builds a deterministic synthetic corpus with plenty of
// term reuse (classes, labels, language tags, typed literals), shaped
// like the datasets the loader actually sees.
func ingestCorpus(n int) []rdf.Triple {
	var ts []rdf.Triple
	iri := func(s string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://x/%s%d", s, i)) }
	for i := 0; i < n; i++ {
		s := iri("e", i)
		ts = append(ts,
			rdf.Triple{S: s, P: rdf.TypeIRI, O: iri("Class", i%13)},
			rdf.Triple{S: s, P: rdf.LabelIRI, O: rdf.NewLangLiteral(fmt.Sprintf("entity \"%d\"\n", i), "en")},
			rdf.Triple{S: s, P: iri("p", i%7), O: iri("e", (i*3+1)%n)},
			rdf.Triple{S: s, P: iri("age", 0), O: rdf.NewTypedLiteral(fmt.Sprint(i%90), rdf.XSDInteger)},
		)
		if i%11 == 0 {
			ts = append(ts, rdf.Triple{S: iri("Class", i%13), P: rdf.SubClassOfIRI, O: iri("Class", (i+1)%13)})
		}
	}
	return ts
}

// snapshotBytes serializes a store's snapshot for byte-level comparison.
func snapshotBytes(t *testing.T, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadStreamAt runs LoadStream with the scheduler — and therefore the
// ingest worker pool, which sizes itself from it — set to procs.
func loadStreamAt(procs int, st *Store, doc string, opts StreamOptions) (int, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return st.LoadStream(strings.NewReader(doc), opts)
}

// TestLoadStreamMatchesLoad: the streaming parallel path must produce a
// store byte-identical to the serial materialize-then-Load path — same
// dictionary IDs, same indexes, same generation.
func TestLoadStreamMatchesLoad(t *testing.T) {
	ts := ingestCorpus(400)
	doc := rdf.FormatNTriples(ts)

	serial := New(len(ts))
	parsed, err := rdf.ParseNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Load(parsed); err != nil {
		t.Fatal(err)
	}
	want := snapshotBytes(t, serial)

	for _, workers := range []int{1, 2, 4, 8} {
		st := New(len(ts))
		added, err := loadStreamAt(workers, st, doc, StreamOptions{ChunkBytes: 512})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if added != serial.Len() {
			t.Fatalf("workers=%d: added %d triples, want %d", workers, added, serial.Len())
		}
		if got := snapshotBytes(t, st); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: snapshot bytes diverge from the serial path (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestLoadStreamDeterministicAcrossChunkSizes: chunk geometry must not
// leak into the result either.
func TestLoadStreamDeterministicAcrossChunkSizes(t *testing.T) {
	ts := ingestCorpus(150)
	doc := rdf.FormatNTriples(ts)
	var want []byte
	for _, chunk := range []int{64, 999, 1 << 20} {
		st := New(0)
		if _, err := loadStreamAt(3, st, doc, StreamOptions{ChunkBytes: chunk}); err != nil {
			t.Fatal(err)
		}
		got := snapshotBytes(t, st)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("chunk=%d: snapshot bytes diverge", chunk)
		}
	}
}

func TestLoadStreamTurtle(t *testing.T) {
	doc := `@prefix ex: <http://x/> .
ex:a a ex:C ; ex:p ex:b, ex:c ; ex:n 41 .
ex:b ex:name "b node"@en .
@prefix ex: <http://y/> .
ex:a ex:p ex:z .
`
	parsed, err := rdf.ParseTurtle(doc)
	if err != nil {
		t.Fatal(err)
	}
	serial := New(0)
	if _, err := serial.Load(parsed); err != nil {
		t.Fatal(err)
	}
	st := New(0)
	added, err := loadStreamAt(4, st, doc, StreamOptions{Syntax: rdf.SyntaxTurtle, ChunkBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if added != serial.Len() {
		t.Fatalf("added %d, want %d", added, serial.Len())
	}
	if !bytes.Equal(snapshotBytes(t, st), snapshotBytes(t, serial)) {
		t.Fatal("turtle stream load diverges from serial load")
	}
}

// TestLoadStreamErrorLeavesStoreUntouched: unlike Load's keep-the-prefix
// semantics, LoadStream is all-or-nothing — and it must not leak half a
// batch into the dictionary either.
func TestLoadStreamErrorLeavesStoreUntouched(t *testing.T) {
	st := New(0)
	if _, err := st.Load(ingestCorpus(5)); err != nil {
		t.Fatal(err)
	}
	lenBefore, dictBefore, genBefore := st.Len(), st.Dict().Len(), st.Generation()

	doc := rdf.FormatNTriples(ingestCorpus(80)) + "this is not a triple\n"
	if _, err := loadStreamAt(4, st, doc, StreamOptions{ChunkBytes: 128}); err == nil {
		t.Fatal("want parse error")
	}
	if st.Len() != lenBefore || st.Dict().Len() != dictBefore || st.Generation() != genBefore {
		t.Fatalf("failed stream load mutated the store: len %d->%d dict %d->%d gen %d->%d",
			lenBefore, st.Len(), dictBefore, st.Dict().Len(), genBefore, st.Generation())
	}
}

// TestLoadStreamIntoPopulatedStore: existing terms keep their IDs and
// existing triples deduplicate, exactly like Load.
func TestLoadStreamIntoPopulatedStore(t *testing.T) {
	all := ingestCorpus(120)
	half := all[:len(all)/2]

	serial := New(0)
	if _, err := serial.Load(half); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.Load(all); err != nil {
		t.Fatal(err)
	}

	st := New(0)
	if _, err := st.Load(half); err != nil {
		t.Fatal(err)
	}
	added, err := loadStreamAt(4, st, rdf.FormatNTriples(all), StreamOptions{ChunkBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if want := serial.Len() - len(half); added != want {
		t.Fatalf("added %d, want %d", added, want)
	}
	if !bytes.Equal(snapshotBytes(t, st), snapshotBytes(t, serial)) {
		t.Fatal("incremental stream load diverges from serial load")
	}
}

func TestLoadStreamEmptyInput(t *testing.T) {
	st := New(0)
	added, err := st.LoadStream(strings.NewReader(""), StreamOptions{})
	if err != nil || added != 0 {
		t.Fatalf("empty input: added=%d err=%v", added, err)
	}
	added, err = st.LoadStream(strings.NewReader("# only a comment\n\n"), StreamOptions{})
	if err != nil || added != 0 {
		t.Fatalf("comment-only input: added=%d err=%v", added, err)
	}
}
